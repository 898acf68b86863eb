#include <cmath>

#include "net/topologies.hpp"

namespace rvma::net {

namespace {
// Per-switch neighbor ports: +x, -x, +y, -y, +z, -z.
constexpr int kPortPlus[3] = {0, 2, 4};
constexpr int kPortMinus[3] = {1, 3, 5};
}  // namespace

Torus3DTopology::Torus3DTopology(const NetworkConfig& config)
    : config_(config), conc_(config.concentration < 1 ? 1 : config.concentration) {
  dx_ = config.torus_x;
  dy_ = config.torus_y;
  dz_ = config.torus_z;
  if (dx_ == 0 || dy_ == 0 || dz_ == 0) {
    const int want = (config.nodes_hint + conc_ - 1) / conc_;
    int d = static_cast<int>(std::lround(std::cbrt(static_cast<double>(want))));
    if (d < 2) d = 2;
    dx_ = d;
    dy_ = d;
    dz_ = (want + d * d - 1) / (d * d);
    if (dz_ < 2) dz_ = 2;
  }
  if (dx_ < 2) dx_ = 2;
  if (dy_ < 2) dy_ = 2;
  if (dz_ < 2) dz_ = 2;
}

void Torus3DTopology::build(Fabric& fabric) {
  const Bandwidth xbar = config_.link.bw.scaled(config_.xbar_factor);
  const int num_switches = dx_ * dy_ * dz_;
  // Long tier: the wrap-around links closing each ring. Both directed
  // ports of a wrap wire get the override, so latency stays symmetric
  // per wire.
  LinkParams long_link = config_.link;
  if (config_.long_link_latency != 0) {
    long_link.latency = config_.long_link_latency;
  }
  const int dims[3] = {dx_, dy_, dz_};
  // Pass 1 — one switch at a time, in id order, with ALL of its ports
  // (6 neighbor links then conc_ ejection links): the fabric's SoA port
  // arrays require each switch's block to be contiguous. Local port
  // numbering is unchanged from the pre-SoA builder: +x,-x,+y,-y,+z,-z.
  for (int sw = 0; sw < num_switches; ++sw) {
    fabric.add_switch(config_.switch_latency, xbar);
    const int coords[3] = {sw / (dy_ * dz_), (sw / dz_) % dy_, sw % dz_};
    for (int dim = 0; dim < 3; ++dim) {
      // The +dim port of the last coordinate and the -dim port of the
      // first are the two ends of the ring's wrap wire.
      fabric.add_port(
          sw, coords[dim] == dims[dim] - 1 ? long_link : config_.link);
      fabric.add_port(sw, coords[dim] == 0 ? long_link : config_.link);
    }
    for (int c = 0; c < conc_; ++c) {
      fabric.attach_node(sw, sw * conc_ + c, config_.link);
    }
  }
  // Pass 2 — wiring only (no port creation).
  for (int x = 0; x < dx_; ++x) {
    for (int y = 0; y < dy_; ++y) {
      for (int z = 0; z < dz_; ++z) {
        const int sw = switch_of(x, y, z);
        const int coords[3] = {x, y, z};
        for (int dim = 0; dim < 3; ++dim) {
          int nc[3] = {x, y, z};
          nc[dim] = (coords[dim] + 1) % dims[dim];
          const int neighbor = switch_of(nc[0], nc[1], nc[2]);
          fabric.connect(sw, kPortPlus[dim], neighbor, kPortMinus[dim]);
        }
      }
    }
  }
}

TopologyFootprint Torus3DTopology::footprint() const {
  const int switches = dx_ * dy_ * dz_;
  return TopologyFootprint{switches, switches * 6, switches * conc_};
}

int Torus3DTopology::static_next_hop(int sw, NodeId dst) const {
  // Same dimension-order arithmetic as route(kStatic); dst's switch is
  // dst / conc_ (nodes are attached in switch-id order).
  const int dst_sw = static_cast<int>(dst) / conc_;
  const int dims[3] = {dx_, dy_, dz_};
  const int cur[3] = {sw / (dy_ * dz_), (sw / dz_) % dy_, sw % dz_};
  const int dsc[3] = {dst_sw / (dy_ * dz_), (dst_sw / dz_) % dy_,
                      dst_sw % dz_};
  for (int dim = 0; dim < 3; ++dim) {
    const int fwd = (dsc[dim] - cur[dim] + dims[dim]) % dims[dim];
    if (fwd == 0) continue;
    const int bwd = (cur[dim] - dsc[dim] + dims[dim]) % dims[dim];
    return fwd <= bwd ? kPortPlus[dim] : kPortMinus[dim];
  }
  return -1;  // unreachable: dst would be attached to this switch
}

int Torus3DTopology::route(const Fabric& fabric, int sw, Packet& pkt,
                           Routing mode) const {
  const int dst_sw = fabric.switch_of_node(pkt.dst);
  const int dims[3] = {dx_, dy_, dz_};
  int cur[3] = {sw / (dy_ * dz_), (sw / dz_) % dy_, sw % dz_};
  int dst[3] = {dst_sw / (dy_ * dz_), (dst_sw / dz_) % dy_, dst_sw % dz_};

  // Productive port per dimension: shortest wrap-around direction,
  // positive on ties (deterministic).
  auto productive_port = [&](int dim) -> int {
    const int fwd = (dst[dim] - cur[dim] + dims[dim]) % dims[dim];
    const int bwd = (cur[dim] - dst[dim] + dims[dim]) % dims[dim];
    if (fwd == 0) return -1;
    return fwd <= bwd ? kPortPlus[dim] : kPortMinus[dim];
  };

  if (mode == Routing::kStatic) {
    for (int dim = 0; dim < 3; ++dim) {
      const int port = productive_port(dim);
      if (port >= 0) return port;
    }
    return -1;  // unreachable: dst would be attached to this switch
  }

  // Minimal-adaptive: among dimensions still needing correction, pick the
  // least-backlogged productive port (deterministic dimension tie-break).
  int best_port = -1;
  Time best_backlog = kTimeInfinity;
  for (int dim = 0; dim < 3; ++dim) {
    const int port = productive_port(dim);
    if (port < 0) continue;
    const Time backlog = fabric.port_backlog(sw, port);
    if (backlog < best_backlog) {
      best_backlog = backlog;
      best_port = port;
    }
  }
  return best_port;
}

}  // namespace rvma::net
