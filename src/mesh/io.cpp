#include "mesh/io.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "support/assert.hpp"

namespace columbia::mesh {

void write_vtk(std::ostream& out, const UnstructuredMesh& m,
               std::span<const PointField> fields) {
  // Refuse non-finite data up front: a NaN deep inside a multi-GB ASCII
  // file is far harder to diagnose than an error naming the culprit, and
  // downstream viewers silently misrender it.
  for (std::size_t i = 0; i < m.points.size(); ++i) {
    const geom::Vec3& p = m.points[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z))
      throw std::runtime_error("write_vtk: non-finite coordinate at point " +
                               std::to_string(i));
  }
  for (const PointField& f : fields)
    for (std::size_t i = 0; i < f.values.size(); ++i)
      if (!std::isfinite(f.values[i]))
        throw std::runtime_error("write_vtk: non-finite value in field '" +
                                 f.name + "' at point " + std::to_string(i));
  out << "# vtk DataFile Version 3.0\n"
      << "columbia-repro mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n";
  out << "POINTS " << m.num_points() << " double\n";
  for (const geom::Vec3& p : m.points)
    out << p.x << ' ' << p.y << ' ' << p.z << '\n';

  std::size_t list_len = 0;
  for (const Element& e : m.elements)
    list_len += 1 + std::size_t(e.num_nodes());
  out << "CELLS " << m.num_elements() << ' ' << list_len << '\n';
  for (const Element& e : m.elements) {
    out << e.num_nodes();
    for (int k = 0; k < e.num_nodes(); ++k)
      out << ' ' << e.nodes[std::size_t(k)];
    out << '\n';
  }
  out << "CELL_TYPES " << m.num_elements() << '\n';
  for (const Element& e : m.elements) {
    // VTK ids: tet 10, pyramid 14, wedge 13, hex 12.
    switch (e.type) {
      case ElementType::Tet: out << 10 << '\n'; break;
      case ElementType::Pyramid: out << 14 << '\n'; break;
      case ElementType::Prism: out << 13 << '\n'; break;
      case ElementType::Hex: out << 12 << '\n'; break;
    }
  }
  if (!fields.empty()) {
    out << "POINT_DATA " << m.num_points() << '\n';
    for (const PointField& f : fields) {
      COLUMBIA_REQUIRE(index_t(f.values.size()) == m.num_points());
      out << "SCALARS " << f.name << " double 1\nLOOKUP_TABLE default\n";
      for (real_t v : f.values) out << v << '\n';
    }
  }
}

}  // namespace columbia::mesh
