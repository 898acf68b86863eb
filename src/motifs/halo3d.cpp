#include "motifs/halo3d.hpp"

namespace rvma::motifs {

std::vector<RankProgram> build_halo3d(const Halo3DConfig& config) {
  const Time iter_compute =
      config.compute_per_cell * static_cast<std::uint64_t>(config.nx) *
      config.ny * config.nz;

  struct Neighbor {
    int rank;
    std::uint64_t tag;
    std::uint64_t bytes;
  };
  std::vector<Neighbor> neighbors;
  std::vector<RankProgram> programs(config.ranks());
  for (int z = 0; z < config.pz; ++z) {
    for (int y = 0; y < config.py; ++y) {
      for (int x = 0; x < config.px; ++x) {
        const int rank = (z * config.py + y) * config.px + x;
        RankProgram& prog = programs[rank];

        neighbors.clear();
        auto add = [&](bool exists, int nrank, std::uint64_t tag,
                       std::uint64_t bytes) {
          if (exists) neighbors.push_back({nrank, tag, bytes});
        };
        add(x > 0, rank - 1, 0, config.face_bytes_x());
        add(x < config.px - 1, rank + 1, 1, config.face_bytes_x());
        add(y > 0, rank - config.px, 2, config.face_bytes_y());
        add(y < config.py - 1, rank + config.px, 3, config.face_bytes_y());
        add(z > 0, rank - config.px * config.py, 4, config.face_bytes_z());
        add(z < config.pz - 1, rank + config.px * config.py, 5,
            config.face_bytes_z());
        // Exact stored length: one block, a header and an iteration's
        // ops (a post, a send and a wait per neighbor, then a compute),
        // repeated `iterations` times.
        prog.reserve(3 * neighbors.size() + 2);

        prog.begin_loop(config.iterations);
        for (const Neighbor& n : neighbors) {
          prog.push_back({Op::Kind::kRecvPost, n.rank, n.tag, n.bytes, 0});
        }
        for (const Neighbor& n : neighbors) {
          // Send tags mirror: my +x face (tag 1 send direction) is the
          // neighbor's -x receive. Use the direction tag of the *flow*:
          // channel tag = direction as seen by the receiver.
          const std::uint64_t send_tag = n.tag ^ 1ULL;
          prog.push_back({Op::Kind::kSend, n.rank, send_tag, n.bytes, 0});
        }
        for (const Neighbor& n : neighbors) {
          prog.push_back({Op::Kind::kRecvWait, n.rank, n.tag, n.bytes, 0});
        }
        prog.push_back({Op::Kind::kCompute, -1, 0, 0, iter_compute});
        prog.end_loop();
      }
    }
  }
  return programs;
}

}  // namespace rvma::motifs
