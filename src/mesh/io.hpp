// Mesh and solution output for inspection.
//
// Legacy-ASCII VTK writer for meshes and per-point solution fields, so
// results can be inspected in ParaView/VisIt.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "mesh/unstructured.hpp"

namespace columbia::mesh {

/// Legacy-ASCII VTK unstructured grid, with optional per-point scalar
/// fields (parallel arrays of values, one per mesh point).
struct PointField {
  std::string name;
  std::span<const real_t> values;
};

void write_vtk(std::ostream& out, const UnstructuredMesh& m,
               std::span<const PointField> fields = {});

}  // namespace columbia::mesh
