#include "cart3d/partitioned.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "cart3d/kernels.hpp"
#include "obs/obs.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"

namespace columbia::cart3d {

using cartesian::CartFace;
using cartesian::CartMesh;
using euler::Cons;
using euler::Prim;
using geom::Vec3;

using kernels::axis_normal;
using kernels::boundary_normal;

core::RequestLists halo_requests(const CartMesh& m,
                                 std::span<const index_t> part,
                                 index_t nparts) {
  const std::size_t np = std::size_t(nparts);
  // Every cross-partition face makes each side a ghost of the other.
  // Deduplicate and sort by (owner, cell) for deterministic packing.
  std::vector<std::vector<std::pair<index_t, index_t>>> want(np);
  for (const CartFace& f : m.faces) {
    if (f.right == kInvalidIndex) continue;
    const index_t pl = part[std::size_t(f.left)];
    const index_t pr = part[std::size_t(f.right)];
    if (pl == pr) continue;
    want[std::size_t(pl)].push_back({pr, f.right});
    want[std::size_t(pr)].push_back({pl, f.left});
  }
  core::RequestLists requests(np);
  for (index_t p = 0; p < nparts; ++p) {
    auto& w = want[std::size_t(p)];
    std::sort(w.begin(), w.end());
    w.erase(std::unique(w.begin(), w.end()), w.end());
    requests[std::size_t(p)].reserve(w.size());
    for (const auto& [owner, cell] : w)
      requests[std::size_t(p)].push_back({owner, cell});
  }
  return requests;
}

std::vector<Cons> parallel_residual(const CartMesh& m,
                                    const std::vector<Cons>& u,
                                    const Prim& freestream,
                                    std::span<const index_t> part,
                                    index_t nparts, euler::FluxScheme flux,
                                    const core::ExchangePlanOptions& comm,
                                    bool overlap) {
  const std::size_t n = m.cells.size();
  const std::size_t np = std::size_t(nparts);
  COLUMBIA_REQUIRE(part.size() == n && u.size() == n);

  // Slot of every cell in its owner's packed state array (owned cells in
  // SFC order, which is ascending cell index).
  std::vector<index_t> slot(n, 0);
  std::vector<index_t> owned_count(np, 0);
  for (std::size_t i = 0; i < n; ++i)
    slot[i] = owned_count[std::size_t(part[i])]++;

  // Interior/cross face split per rank (built once with the plans): an
  // owned face is interior iff its right cell is owned too, so interior
  // faces plus the cell-local closures run without ghost data. Both lists
  // keep ascending face order; interior always runs first, making the
  // accumulation order a property of the decomposition alone.
  std::vector<std::vector<index_t>> interior_faces(np), cross_faces(np);
  std::vector<std::vector<index_t>> owned_cells(np);
  for (std::size_t fi = 0; fi < m.faces.size(); ++fi) {
    const CartFace& f = m.faces[fi];
    const index_t pl = part[std::size_t(f.left)];
    const bool cross =
        f.right != kInvalidIndex && part[std::size_t(f.right)] != pl;
    (cross ? cross_faces : interior_faces)[std::size_t(pl)].push_back(
        index_t(fi));
  }
  for (std::size_t i = 0; i < n; ++i)
    owned_cells[std::size_t(part[i])].push_back(index_t(i));

  // Packed arrays are component-major (plane c starts at c * owned_count)
  // and requests are emitted c-major, so consecutive requests against one
  // owner walk a single plane in ascending slot order.
  const core::RequestLists ghosts = halo_requests(m, part, nparts);
  core::RequestLists reqs1(np);
  for (index_t p = 0; p < nparts; ++p) {
    const auto& g = ghosts[std::size_t(p)];
    reqs1[std::size_t(p)].reserve(g.size() * 5);
    for (index_t c = 0; c < 5; ++c)
      for (const core::HaloRequest& r : g)
        reqs1[std::size_t(p)].push_back(
            {r.from_partition,
             c * owned_count[std::size_t(r.from_partition)] +
                 slot[std::size_t(r.item)]});
  }
  core::ExchangePlan plan1(std::move(reqs1), comm);

  // Residual-contribution lists: contrib[p][q] = cells owned by q whose
  // residual partition p accumulates (p owns cross faces via the left
  // cell), deduplicated and sorted.
  std::vector<std::map<index_t, std::vector<index_t>>> contrib(
      np, std::map<index_t, std::vector<index_t>>{});
  for (const CartFace& f : m.faces) {
    const index_t pl = part[std::size_t(f.left)];
    const index_t pr = part[std::size_t(f.right)];
    if (pl == pr) continue;
    contrib[std::size_t(pl)][pr].push_back(f.right);
  }
  for (auto& per_rank : contrib)
    for (auto& [q, cells] : per_rank) {
      std::sort(cells.begin(), cells.end());
      cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    }

  std::vector<std::map<index_t, index_t>> coff(np);
  std::vector<index_t> contrib_count(np, 0);
  for (index_t p = 0; p < nparts; ++p) {
    index_t off = 0;
    for (const auto& [q, cells] : contrib[std::size_t(p)]) {
      coff[std::size_t(p)][q] = off;
      off += index_t(cells.size());
    }
    contrib_count[std::size_t(p)] = off;
  }
  core::RequestLists reqs2(np);
  for (index_t p = 0; p < nparts; ++p)
    for (index_t q = 0; q < nparts; ++q) {
      const auto it = contrib[std::size_t(q)].find(p);
      if (it == contrib[std::size_t(q)].end()) continue;
      const index_t base = coff[std::size_t(q)].at(p);
      for (index_t c = 0; c < 5; ++c)
        for (std::size_t k = 0; k < it->second.size(); ++k)
          reqs2[std::size_t(p)].push_back(
              {q, c * contrib_count[std::size_t(q)] + base + index_t(k)});
    }
  core::ExchangePlan plan2(std::move(reqs2), comm);

  // Phase 1: pack owned states and post the ghost fetch; blocking mode
  // completes it here, overlap mode after the interior phase. Compute
  // order is identical either way.
  core::PartitionData state_data(np);
  for (index_t p = 0; p < nparts; ++p)
    state_data[std::size_t(p)].resize(
        std::size_t(owned_count[std::size_t(p)]) * 5);
  for (std::size_t c = 0; c < 5; ++c)
    for (std::size_t i = 0; i < n; ++i)
      state_data[std::size_t(part[i])]
                [c * std::size_t(owned_count[std::size_t(part[i])]) +
                 std::size_t(slot[i])] = u[i][c];
  plan1.post(state_data);
  const core::PartitionData* ghost_vals = overlap ? nullptr : &plan1.finish();

  // Phase 2a (interior): fully-owned face fluxes plus the cell-local
  // closures, one rank per partition on the pool; no ghost data touched,
  // so this is the compute that hides the exchange in overlap mode.
  std::vector<std::vector<Cons>> res_of(np);
  smp::ThreadPool::global().parallel_for(
      0, np, 1, [&](std::size_t pb, std::size_t pe, int) {
        // Level-tagged interior compute for the overlap-headroom analyzer
        // (paired against halo.xchg waits on the same level).
        OBS_SPAN("cart3d.partitioned.compute", "level",
                 std::int64_t(comm.level));
        for (std::size_t mep = pb; mep < pe; ++mep) {
          std::vector<Cons> res(n, Cons{});
          for (const index_t fi : interior_faces[mep]) {
            const CartFace& f = m.faces[std::size_t(fi)];
            const Vec3 nrm = axis_normal(f.axis);
            const Prim wl = euler::to_primitive(u[std::size_t(f.left)]);
            const Prim wr = euler::to_primitive(u[std::size_t(f.right)]);
            const Cons fl = euler::numerical_flux(wl, wr, nrm, flux);
            for (int c = 0; c < 5; ++c) {
              res[std::size_t(f.left)][std::size_t(c)] +=
                  f.area * fl[std::size_t(c)];
              res[std::size_t(f.right)][std::size_t(c)] -=
                  f.area * fl[std::size_t(c)];
            }
          }
          // Domain (farfield) boundary faces are cell-local.
          for (const CartFace& f : m.boundary_faces) {
            if (part[std::size_t(f.left)] != index_t(mep)) continue;
            const Vec3 nrm = boundary_normal(f);
            const Cons fl = euler::farfield_flux(
                euler::to_primitive(u[std::size_t(f.left)]), freestream, nrm,
                flux);
            for (int c = 0; c < 5; ++c)
              res[std::size_t(f.left)][std::size_t(c)] +=
                  f.area * fl[std::size_t(c)];
          }
          // Embedded (cut-cell) walls are cell-local.
          for (const index_t i : owned_cells[mep]) {
            if (!m.cells[std::size_t(i)].cut) continue;
            const Cons fl = euler::wall_flux(
                euler::to_primitive(u[std::size_t(i)]),
                m.cells[std::size_t(i)].wall_area);
            for (int c = 0; c < 5; ++c)
              res[std::size_t(i)][std::size_t(c)] += fl[std::size_t(c)];
          }
          res_of[mep] = std::move(res);
        }
      });

  // Overlap mode: interior work done — wait out the exchange now.
  if (overlap) ghost_vals = &plan1.finish();

  // Phase 2b (cross faces): scatter each rank's ghost block and
  // accumulate the halo-adjacent faces, same ascending face order as 2a.
  smp::ThreadPool::global().parallel_for(
      0, np, 1, [&](std::size_t pb, std::size_t pe, int) {
        OBS_SPAN("cart3d.partitioned.compute", "level",
                 std::int64_t(comm.level));
        for (std::size_t mep = pb; mep < pe; ++mep) {
          const index_t me = index_t(mep);
          std::vector<Cons> ghost(n, Cons{});  // sparse by construction
          const auto& g = ghosts[mep];
          const auto& got = (*ghost_vals)[mep];
          for (std::size_t c = 0; c < 5; ++c)
            for (std::size_t k = 0; k < g.size(); ++k)
              ghost[std::size_t(g[k].item)][c] = got[c * g.size() + k];

          auto state_of = [&](index_t i) -> const Cons& {
            return part[std::size_t(i)] == me ? u[std::size_t(i)]
                                              : ghost[std::size_t(i)];
          };

          auto& res = res_of[mep];
          for (const index_t fi : cross_faces[mep]) {
            const CartFace& f = m.faces[std::size_t(fi)];
            const Vec3 nrm = axis_normal(f.axis);
            const Prim wl = euler::to_primitive(state_of(f.left));
            const Prim wr = euler::to_primitive(state_of(f.right));
            const Cons fl = euler::numerical_flux(wl, wr, nrm, flux);
            for (int c = 0; c < 5; ++c) {
              res[std::size_t(f.left)][std::size_t(c)] +=
                  f.area * fl[std::size_t(c)];
              res[std::size_t(f.right)][std::size_t(c)] -=
                  f.area * fl[std::size_t(c)];
            }
          }
        }
      });

  // Phase 3: return cross-partition face contributions; the owned-row
  // copy hides the return trip in overlap mode.
  core::PartitionData contrib_data(np);
  for (index_t p = 0; p < nparts; ++p) {
    auto& buf = contrib_data[std::size_t(p)];
    buf.resize(std::size_t(contrib_count[std::size_t(p)]) * 5);
    std::size_t w = 0;
    for (std::size_t c = 0; c < 5; ++c)
      for (const auto& [q, cells] : contrib[std::size_t(p)])
        for (index_t i : cells)
          buf[w++] = res_of[std::size_t(p)][std::size_t(i)][c];
  }
  plan2.post(contrib_data);
  const core::PartitionData* returned = overlap ? nullptr : &plan2.finish();

  std::vector<Cons> result(n, Cons{});
  for (std::size_t i = 0; i < n; ++i)
    result[i] = res_of[std::size_t(part[i])][i];
  if (overlap) returned = &plan2.finish();

  for (index_t p = 0; p < nparts; ++p) {
    const auto& got = (*returned)[std::size_t(p)];
    std::size_t k = 0;
    for (index_t q = 0; q < nparts; ++q) {
      const auto it = contrib[std::size_t(q)].find(p);
      if (it == contrib[std::size_t(q)].end()) continue;
      // c-major to match the request emission; per-element add order
      // (ascending q) is unchanged, so the sums are bit-identical.
      for (std::size_t c = 0; c < 5; ++c)
        for (index_t i : it->second)
          result[std::size_t(i)][c] += got[k++];
    }
  }
  return result;
}

}  // namespace columbia::cart3d
