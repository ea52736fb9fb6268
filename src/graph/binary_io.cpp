#include "graph/binary_io.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "common/assert.h"

namespace graphite {

namespace {

constexpr char kMagic[4] = {'G', 'C', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

} // namespace

void
saveCsr(const CsrGraph &graph, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out.write(kMagic, sizeof(kMagic));
    out.write(reinterpret_cast<const char *>(&kVersion),
              sizeof(kVersion));
    const std::uint64_t numVertices = graph.numVertices();
    const std::uint64_t numEdges = graph.numEdges();
    out.write(reinterpret_cast<const char *>(&numVertices),
              sizeof(numVertices));
    out.write(reinterpret_cast<const char *>(&numEdges),
              sizeof(numEdges));
    out.write(reinterpret_cast<const char *>(graph.rowPtr().data()),
              static_cast<std::streamsize>(
                  graph.rowPtr().size() * sizeof(EdgeId)));
    out.write(reinterpret_cast<const char *>(graph.colIdx().data()),
              static_cast<std::streamsize>(
                  graph.colIdx().size() * sizeof(VertexId)));
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

CsrGraph
loadCsr(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatal("'%s' is not a graphite CSR file", path.c_str());
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (version != kVersion)
        fatal("unsupported CSR file version %u", version);
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    in.read(reinterpret_cast<char *>(&numVertices), sizeof(numVertices));
    in.read(reinterpret_cast<char *>(&numEdges), sizeof(numEdges));
    if (!in)
        fatal("truncated CSR header in '%s'", path.c_str());
    // Header sizes are untrusted: bound them by VertexId's range (which
    // also keeps numVertices + 1 from wrapping to an empty graph) and by
    // the bytes actually left in the file, before allocating anything.
    if (numVertices > std::numeric_limits<VertexId>::max())
        fatal("CSR header in '%s' declares %llu vertices; VertexId holds "
              "at most %llu",
              path.c_str(), static_cast<unsigned long long>(numVertices),
              static_cast<unsigned long long>(
                  std::numeric_limits<VertexId>::max()));
    const std::streamoff headerEnd = in.tellg();
    in.seekg(0, std::ios::end);
    const auto remaining =
        static_cast<std::uint64_t>(in.tellg() - headerEnd);
    in.seekg(headerEnd);
    const std::uint64_t rowPtrBytes = (numVertices + 1) * sizeof(EdgeId);
    if (numEdges > remaining / sizeof(VertexId) ||
        rowPtrBytes + numEdges * sizeof(VertexId) > remaining)
        fatal("CSR header in '%s' declares %llu vertices and %llu edges, "
              "more than the %llu bytes left in the file",
              path.c_str(), static_cast<unsigned long long>(numVertices),
              static_cast<unsigned long long>(numEdges),
              static_cast<unsigned long long>(remaining));

    std::vector<EdgeId> rowPtr(numVertices + 1);
    std::vector<VertexId> colIdx(numEdges);
    in.read(reinterpret_cast<char *>(rowPtr.data()),
            static_cast<std::streamsize>(rowPtr.size() * sizeof(EdgeId)));
    in.read(reinterpret_cast<char *>(colIdx.data()),
            static_cast<std::streamsize>(colIdx.size() *
                                         sizeof(VertexId)));
    if (!in)
        fatal("truncated CSR arrays in '%s'", path.c_str());
    // The CsrGraph constructor revalidates the invariants, so corrupt
    // files panic with a clear message rather than producing UB.
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

bool
isCsrFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[4];
    in.read(magic, sizeof(magic));
    return in && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

} // namespace graphite
