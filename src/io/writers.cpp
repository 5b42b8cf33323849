#include "io/writers.h"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/assert.h"

namespace tpf::io {

void writeObj(const std::string& path, const TriMesh& mesh) {
    std::ofstream out(path);
    TPF_ASSERT(out.good(), "cannot open OBJ file for writing");
    // General form with 17 significant digits, which std::to_chars specifies
    // to print as printf's %.17g does: it round-trips IEEE-754 doubles exactly,
    // so readObj() reconstructs the mesh bitwise, and two runs producing
    // bitwise-identical meshes write byte-identical files (the
    // mesh_rank_invariance contract compares the OBJ artifacts directly).
    std::string text = "# TernaryPF surface mesh\n";
    text.reserve(text.size() + mesh.vertices.size() * 64 +
                 mesh.triangles.size() * 24);
    char line[128];
    const auto put = [&](char* at, double v) {
        *at++ = ' ';
        return std::to_chars(at, line + sizeof line, v,
                             std::chars_format::general, 17)
            .ptr;
    };
    for (const Vec3& v : mesh.vertices) {
        char* at = line;
        *at++ = 'v';
        at = put(put(put(at, v.x), v.y), v.z);
        *at++ = '\n';
        text.append(line, at);
    }
    for (const auto& t : mesh.triangles) {
        char* at = line;
        *at++ = 'f';
        for (const int i : t) {
            *at++ = ' ';
            at = std::to_chars(at, line + sizeof line, i + 1).ptr;
        }
        *at++ = '\n';
        text.append(line, at);
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    TPF_ASSERT(out.good(), "OBJ write failed");
}

TriMesh readObj(const std::string& path) {
    std::ifstream in(path);
    TPF_ASSERT(in.good(), "cannot open OBJ file for reading");
    TriMesh m;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "v") {
            Vec3 v;
            ls >> v.x >> v.y >> v.z;
            m.vertices.push_back(v);
        } else if (tag == "f") {
            std::array<int, 3> t{};
            for (int i = 0; i < 3; ++i) {
                std::string tok;
                ls >> tok;
                // Accept "i", "i/..", "i//.." forms.
                t[static_cast<std::size_t>(i)] =
                    std::stoi(tok.substr(0, tok.find('/'))) - 1;
            }
            m.triangles.push_back(t);
        }
    }
    return m;
}

void writeStlBinary(const std::string& path, const TriMesh& mesh) {
    std::ofstream out(path, std::ios::binary);
    TPF_ASSERT(out.good(), "cannot open STL file for writing");

    char header[80] = "TernaryPF binary STL";
    out.write(header, sizeof(header));
    const auto count = static_cast<std::uint32_t>(mesh.numTriangles());
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));

    for (std::size_t t = 0; t < mesh.numTriangles(); ++t) {
        const Vec3 n = mesh.triangleNormal(t);
        float rec[12] = {static_cast<float>(n.x), static_cast<float>(n.y),
                         static_cast<float>(n.z)};
        for (int c = 0; c < 3; ++c) {
            const Vec3& v = mesh.vertices[static_cast<std::size_t>(
                mesh.triangles[t][static_cast<std::size_t>(c)])];
            rec[3 + 3 * c + 0] = static_cast<float>(v.x);
            rec[3 + 3 * c + 1] = static_cast<float>(v.y);
            rec[3 + 3 * c + 2] = static_cast<float>(v.z);
        }
        out.write(reinterpret_cast<const char*>(rec), sizeof(rec));
        const std::uint16_t attr = 0;
        out.write(reinterpret_cast<const char*>(&attr), sizeof(attr));
    }
    TPF_ASSERT(out.good(), "STL write failed");
}

void writeVtkField(const std::string& path, const Field<double>& field,
                   const std::string& name) {
    std::ofstream out(path);
    TPF_ASSERT(out.good(), "cannot open VTK file for writing");

    out << "# vtk DataFile Version 3.0\n"
        << "TernaryPF field " << name << "\n"
        << "ASCII\n"
        << "DATASET STRUCTURED_POINTS\n"
        << "DIMENSIONS " << field.nx() << ' ' << field.ny() << ' ' << field.nz()
        << "\nORIGIN 0 0 0\nSPACING 1 1 1\n"
        << "POINT_DATA "
        << static_cast<long long>(field.nx()) * field.ny() * field.nz() << "\n";

    out.precision(6);
    for (int c = 0; c < field.nf(); ++c) {
        out << "SCALARS " << name << c << " float 1\nLOOKUP_TABLE default\n";
        forEachCell(field.interior(), [&](int x, int y, int z) {
            out << static_cast<float>(field(x, y, z, c)) << '\n';
        });
    }
    TPF_ASSERT(out.good(), "VTK write failed");
}

} // namespace tpf::io
