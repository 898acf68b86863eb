// Builtin motif registrations: name + params -> per-rank programs.
//
// Each builder reads its parameters through a ParamReader so typo'd keys
// and malformed values fail the scenario instead of silently simulating
// defaults. Process-grid shapes left unset derive from the rank count the
// same way the figure benches always have (near-cubic for halo3d,
// near-square for sweep3d), so `--nodes` alone scales a scenario.
#include <algorithm>
#include <cmath>
#include <memory>

#include "motifs/api_motifs.hpp"
#include "motifs/collectives.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/incast.hpp"
#include "motifs/sweep3d.hpp"
#include "scenario/registry.hpp"

namespace rvma::scenario {

namespace {

/// Shared tail: reject unknown keys / bad values with a useful message.
bool finish_params(ParamReader& reader, const std::string& motif,
                   std::string* error) {
  if (!reader.ok()) {
    if (error != nullptr)
      *error = motif + ": bad value for param \"" + reader.bad_values()[0] +
               "\"";
    return false;
  }
  const auto leftover = reader.unconsumed();
  if (!leftover.empty()) {
    if (error != nullptr)
      *error = motif + ": unknown param \"" + leftover[0] + "\"";
    return false;
  }
  return true;
}

/// Shared failure for program builders: an empty program list plus a
/// message naming the motif.
std::vector<motifs::RankProgram> reject(std::string* error,
                                        const char* message) {
  if (error != nullptr) *error = message;
  return {};
}

std::vector<motifs::RankProgram> build_halo3d_spec(const ScenarioSpec& spec,
                                                   std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::Halo3DConfig cfg;
  // Near-cubic process grid that fits in `nodes` ranks, unless the shape
  // is pinned explicitly.
  const int p = std::max(
      1, static_cast<int>(std::cbrt(static_cast<double>(spec.nodes))));
  cfg.px = reader.get_int("px", p);
  cfg.py = reader.get_int("py", p);
  cfg.pz = reader.get_int("pz", std::max(1, spec.nodes / (p * p)));
  cfg.nx = reader.get_int("nx", cfg.nx);
  cfg.ny = reader.get_int("ny", cfg.ny);
  cfg.nz = reader.get_int("nz", cfg.nz);
  cfg.vars = reader.get_int("vars", cfg.vars);
  cfg.iterations = reader.get_int("iterations", cfg.iterations);
  cfg.compute_per_cell =
      reader.get_duration("compute_per_cell", cfg.compute_per_cell);
  if (!finish_params(reader, "halo3d", error)) return {};
  const int smallest =
      std::min({cfg.px, cfg.py, cfg.pz, cfg.nx, cfg.ny, cfg.nz, cfg.vars});
  if (smallest < 1) {
    return reject(error,
                  "halo3d: px, py, pz, nx, ny, nz and vars must be >= 1");
  }
  return motifs::build_halo3d(cfg);
}

std::vector<motifs::RankProgram> build_sweep3d_spec(const ScenarioSpec& spec,
                                                    std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::Sweep3DConfig cfg;
  // Near-square process grid that fits in `nodes` ranks.
  const int pex_default =
      std::max(1, static_cast<int>(std::sqrt(spec.nodes)));
  cfg.pex = reader.get_int("pex", pex_default);
  cfg.pey =
      reader.get_int("pey", std::max(1, spec.nodes / std::max(1, cfg.pex)));
  cfg.nx = reader.get_int("nx", cfg.nx);
  cfg.ny = reader.get_int("ny", cfg.ny);
  cfg.nz = reader.get_int("nz", cfg.nz);
  cfg.kba = reader.get_int("kba", cfg.kba);
  cfg.vars = reader.get_int("vars", cfg.vars);
  cfg.compute_per_cell =
      reader.get_duration("compute_per_cell", cfg.compute_per_cell);
  if (!finish_params(reader, "sweep3d", error)) return {};
  const int smallest = std::min(
      {cfg.pex, cfg.pey, cfg.nx, cfg.ny, cfg.nz, cfg.kba, cfg.vars});
  if (smallest < 1) {
    return reject(error,
                  "sweep3d: pex, pey, nx, ny, nz, kba and vars must be >= 1");
  }
  return motifs::build_sweep3d(cfg);
}

std::vector<motifs::RankProgram> build_incast_spec(const ScenarioSpec& spec,
                                                   std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::IncastConfig cfg;
  cfg.clients = reader.get_int("clients", std::max(1, spec.nodes - 1));
  cfg.messages_per_client =
      reader.get_int("messages_per_client", cfg.messages_per_client);
  cfg.bytes = reader.get_size("bytes", cfg.bytes);
  cfg.client_compute =
      reader.get_duration("client_compute", cfg.client_compute);
  if (!finish_params(reader, "incast", error)) return {};
  if (cfg.clients < 1) return reject(error, "incast: clients must be >= 1");
  return motifs::build_incast(cfg);
}

std::vector<motifs::RankProgram> build_barrier_spec(const ScenarioSpec& spec,
                                                    std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::BarrierConfig cfg;
  cfg.ranks = spec.nodes;
  cfg.iterations = reader.get_int("iterations", cfg.iterations);
  cfg.bytes = reader.get_size("bytes", cfg.bytes);
  if (!finish_params(reader, "barrier", error)) return {};
  return motifs::build_barrier(cfg);
}

std::vector<motifs::RankProgram> build_allreduce_spec(
    const ScenarioSpec& spec, std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::AllReduceConfig cfg;
  cfg.ranks = spec.nodes;
  cfg.bytes = reader.get_size("bytes", cfg.bytes);
  cfg.iterations = reader.get_int("iterations", cfg.iterations);
  cfg.reduce_per_byte =
      reader.get_duration("reduce_per_byte", cfg.reduce_per_byte);
  if (!finish_params(reader, "allreduce", error)) return {};
  return motifs::build_allreduce(cfg);
}

std::vector<motifs::RankProgram> build_broadcast_spec(
    const ScenarioSpec& spec, std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::BroadcastConfig cfg;
  cfg.ranks = spec.nodes;
  cfg.root = reader.get_int("root", cfg.root);
  cfg.bytes = reader.get_size("bytes", cfg.bytes);
  cfg.iterations = reader.get_int("iterations", cfg.iterations);
  if (!finish_params(reader, "broadcast", error)) return {};
  if (cfg.root < 0 || cfg.root >= spec.nodes)
    return reject(error, "broadcast: root must be in [0, nodes)");
  return motifs::build_broadcast(cfg);
}

// API-layer motif builders: validate params, return a motifs::ApiMotif.
// The paper MTU (4096B NIC default) bounds single-packet records.

std::unique_ptr<motifs::ApiMotif> build_remote_paging_spec(
    const ScenarioSpec& spec, std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::RemotePagingConfig cfg;
  cfg.seed = spec.seed;
  cfg.page_bytes = reader.get_size("page_bytes", cfg.page_bytes);
  cfg.pages_per_rank = reader.get_int("pages_per_rank", cfg.pages_per_rank);
  cfg.faults = reader.get_int("faults", cfg.faults);
  cfg.think = reader.get_duration("think", cfg.think);
  if (!finish_params(reader, "remote_paging", error)) return nullptr;
  auto fail = [&](const char* msg) {
    if (error != nullptr) *error = std::string("remote_paging: ") + msg;
    return nullptr;
  };
  if (spec.nodes < 2) return fail("needs >= 2 nodes");
  if (cfg.page_bytes == 0) return fail("page_bytes must be > 0");
  if (cfg.pages_per_rank < 1) return fail("pages_per_rank must be >= 1");
  if (cfg.faults < 0) return fail("faults must be >= 0");
  return std::make_unique<motifs::RemotePagingMotif>(cfg);
}

std::unique_ptr<motifs::ApiMotif> build_kv_store_spec(
    const ScenarioSpec& spec, std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::KvStoreConfig cfg;
  cfg.seed = spec.seed;
  cfg.servers = reader.get_int("servers", std::max(1, spec.nodes / 4));
  cfg.requests = reader.get_int("requests", cfg.requests);
  cfg.value_bytes = reader.get_size("value_bytes", cfg.value_bytes);
  cfg.outstanding = reader.get_int("outstanding", cfg.outstanding);
  cfg.server_compute =
      reader.get_duration("server_compute", cfg.server_compute);
  if (!finish_params(reader, "kv_store", error)) return nullptr;
  auto fail = [&](const char* msg) {
    if (error != nullptr) *error = std::string("kv_store: ") + msg;
    return nullptr;
  };
  if (cfg.servers < 1) return fail("servers must be >= 1");
  if (spec.nodes <= cfg.servers) return fail("needs at least one client");
  if (cfg.requests < 0) return fail("requests must be >= 0");
  if (cfg.outstanding < 1) return fail("outstanding must be >= 1");
  // One record per request/reply buffer; keep it a single MTU packet.
  if (16 + cfg.value_bytes > 4096)
    return fail("value_bytes too large (record must fit one 4KiB MTU)");
  return std::make_unique<motifs::KvStoreMotif>(cfg);
}

std::unique_ptr<motifs::ApiMotif> build_alltoall_spec(
    const ScenarioSpec& spec, std::string* error) {
  ParamReader reader(spec.motif_params);
  motifs::AllToAllConfig cfg;
  cfg.bytes = reader.get_size("bytes", cfg.bytes);
  cfg.iterations = reader.get_int("iterations", cfg.iterations);
  if (!finish_params(reader, "alltoall", error)) return nullptr;
  auto fail = [&](const char* msg) {
    if (error != nullptr) *error = std::string("alltoall: ") + msg;
    return nullptr;
  };
  if (spec.nodes < 2) return fail("needs >= 2 nodes");
  if (cfg.bytes == 0) return fail("bytes must be > 0");
  if (cfg.iterations < 1 || cfg.iterations > 512)
    return fail("iterations must be in [1, 512]");
  return std::make_unique<motifs::AllToAllMotif>(cfg);
}

MotifEntry api_entry(std::string description,
                     std::unique_ptr<motifs::ApiMotif> (*build_api)(
                         const ScenarioSpec&, std::string*)) {
  MotifEntry entry;
  entry.description = std::move(description);
  entry.build_api = build_api;
  return entry;
}

}  // namespace

void register_builtin_motifs(Registry<MotifEntry>& reg) {
  reg.add("remote_paging",
          api_entry("page faults served by remote 4KiB rvma_get fetches",
                    build_remote_paging_spec));
  reg.add("kv_store",
          api_entry("closed-loop KV clients vs catch-all mailbox servers",
                    build_kv_store_spec));
  reg.add("alltoall",
          api_entry("full personalized exchange, one window per iteration",
                    build_alltoall_spec));
  reg.add("halo3d", {"3-D face exchange, bandwidth-bound (paper Fig. 8)",
                     build_halo3d_spec});
  reg.add("sweep3d", {"KBA wavefront sweep, latency-bound (paper Fig. 7)",
                      build_sweep3d_spec});
  reg.add("incast", {"many clients to one server mailbox", build_incast_spec});
  reg.add("barrier",
          {"dissemination barrier, log2(n) signal rounds", build_barrier_spec});
  reg.add("allreduce",
          {"ring allreduce: reduce-scatter + allgather", build_allreduce_spec});
  reg.add("broadcast",
          {"binomial-tree broadcast from a root rank", build_broadcast_spec});
}

}  // namespace rvma::scenario
