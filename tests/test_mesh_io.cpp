#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "mesh/builders.hpp"
#include "mesh/io.hpp"

namespace columbia::mesh {
namespace {

TEST(MeshIo, VtkContainsExpectedSections) {
  const auto m = make_box_mesh(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  std::vector<real_t> field(std::size_t(m.num_points()), 1.5);
  const PointField f{"density", field};
  std::stringstream out;
  write_vtk(out, m, std::span<const PointField>(&f, 1));
  const std::string s = out.str();
  EXPECT_NE(s.find("DATASET UNSTRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(s.find("POINTS 27 double"), std::string::npos);
  EXPECT_NE(s.find("CELLS 8"), std::string::npos);
  EXPECT_NE(s.find("SCALARS density double 1"), std::string::npos);
}

TEST(MeshIo, VtkRefusesNonFiniteCoordinates) {
  auto m = make_box_mesh(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  m.points[3].y = std::numeric_limits<real_t>::quiet_NaN();
  std::stringstream out;
  try {
    write_vtk(out, m);
    FAIL() << "expected write_vtk to refuse the NaN coordinate";
  } catch (const std::runtime_error& e) {
    // The error names the offending point instead of emitting a broken file.
    EXPECT_NE(std::string(e.what()).find("point 3"), std::string::npos);
  }
}

TEST(MeshIo, VtkRefusesNonFiniteFieldValues) {
  const auto m = make_box_mesh(2, 2, 2, {0, 0, 0}, {1, 1, 1});
  std::vector<real_t> field(std::size_t(m.num_points()), 1.0);
  field[5] = std::numeric_limits<real_t>::infinity();
  const PointField f{"pressure", field};
  std::stringstream out;
  try {
    write_vtk(out, m, std::span<const PointField>(&f, 1));
    FAIL() << "expected write_vtk to refuse the Inf field value";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pressure"), std::string::npos);
    EXPECT_NE(msg.find("point 5"), std::string::npos);
  }
}

TEST(MeshIo, VtkCellTypesMatchElements) {
  WingMeshSpec spec;
  spec.n_wrap = 12;
  spec.n_span = 1;
  spec.n_normal = 4;
  const auto m = make_wing_mesh(spec);  // hexes + prisms
  std::stringstream out;
  write_vtk(out, m);
  const std::string s = out.str();
  EXPECT_NE(s.find("\n12\n"), std::string::npos);  // VTK hex
  EXPECT_NE(s.find("\n13\n"), std::string::npos);  // VTK wedge
}

}  // namespace
}  // namespace columbia::mesh
