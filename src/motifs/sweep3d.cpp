#include "motifs/sweep3d.hpp"

namespace rvma::motifs {

std::vector<RankProgram> build_sweep3d(const Sweep3DConfig& config) {
  const int pex = config.pex;
  const int pey = config.pey;
  const int steps = config.z_steps();
  const std::uint64_t xb = config.x_msg_bytes();
  const std::uint64_t yb = config.y_msg_bytes();
  const Time block_compute =
      config.compute_per_cell *
      static_cast<std::uint64_t>(config.nx) * config.ny * config.kba;

  // Corner directions (sx, sy): the four sweep quadrants; each runs twice
  // (+z and -z halves of the octant pairs).
  static constexpr int kDirs[4][2] = {{1, 1}, {-1, 1}, {1, -1}, {-1, -1}};

  std::vector<RankProgram> programs(config.ranks());
  for (int j = 0; j < pey; ++j) {
    for (int i = 0; i < pex; ++i) {
      const int rank = j * pex + i;
      RankProgram& prog = programs[rank];
      // Allocate the program once, at its exact stored length: each
      // octant is one block, a header and one z-step's ops, repeated
      // `steps` times. A step is a compute, a post and a wait per
      // upstream neighbor and a send per downstream one; over the eight
      // octants each x (y) neighbor is upstream four times and
      // downstream four times.
      const int x_neighbors = (i > 0) + (i < pex - 1);
      const int y_neighbors = (j > 0) + (j < pey - 1);
      prog.reserve(16 + 12 * static_cast<std::size_t>(x_neighbors +
                                                       y_neighbors));
      for (int octant = 0; octant < 8; ++octant) {
        const int* dir = kDirs[octant % 4];
        const int sx = dir[0], sy = dir[1];
        // Upstream / downstream neighbors for this sweep direction.
        const int up_x = (sx > 0) ? (i > 0 ? rank - 1 : -1)
                                  : (i < pex - 1 ? rank + 1 : -1);
        const int dn_x = (sx > 0) ? (i < pex - 1 ? rank + 1 : -1)
                                  : (i > 0 ? rank - 1 : -1);
        const int up_y = (sy > 0) ? (j > 0 ? rank - pex : -1)
                                  : (j < pey - 1 ? rank + pex : -1);
        const int dn_y = (sy > 0) ? (j < pey - 1 ? rank + pex : -1)
                                  : (j > 0 ? rank - pex : -1);
        const std::uint64_t tag = static_cast<std::uint64_t>(octant);

        prog.begin_loop(steps);
        if (up_x >= 0) prog.push_back({Op::Kind::kRecvPost, up_x, tag, xb, 0});
        if (up_y >= 0) prog.push_back({Op::Kind::kRecvPost, up_y, tag, yb, 0});
        if (up_x >= 0) prog.push_back({Op::Kind::kRecvWait, up_x, tag, xb, 0});
        if (up_y >= 0) prog.push_back({Op::Kind::kRecvWait, up_y, tag, yb, 0});
        prog.push_back({Op::Kind::kCompute, -1, 0, 0, block_compute});
        if (dn_x >= 0) prog.push_back({Op::Kind::kSend, dn_x, tag, xb, 0});
        if (dn_y >= 0) prog.push_back({Op::Kind::kSend, dn_y, tag, yb, 0});
        prog.end_loop();
      }
    }
  }
  return programs;
}

}  // namespace rvma::motifs
