#include "scenario/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "obs/json.hpp"

namespace rvma::scenario {

namespace {

/// Shortest decimal rendering that parses back to exactly `v` — the same
/// discipline as the canonical unit writers in src/common/units.
std::string shortest_double(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  std::string s(buf, ptr);
  // JSON number, not a C++ literal: keep it parseable as a double but
  // stable ("1.5" stays "1.5", "2" stays "2").
  return s;
}

/// Link rates must be positive and finite: Bandwidth::serialize charges
/// nothing at a rate <= 0, so a zero bandwidth or crossbar factor would
/// read as a faster network instead of failing.
bool positive_rate(double v) { return v > 0 && std::isfinite(v); }

void append_quoted(std::string* out, const std::string& s) {
  obs::json_append_escaped(out, s);
}

/// Scenario object body in fixed canonical key order. `indent` is the
/// prefix for member lines (top-level doc: "  "; nested grid base: "    ").
void append_spec_object(std::string* out, const ScenarioSpec& spec,
                        const std::string& indent) {
  const std::string in2 = indent + "  ";
  const std::string in3 = in2 + "  ";
  out->append("{\n");
  if (!spec.name.empty()) {
    out->append(in2).append("\"name\": ");
    append_quoted(out, spec.name);
    out->append(",\n");
  }
  out->append(in2).append("\"topology\": {\n");
  out->append(in3).append("\"kind\": ");
  append_quoted(out, spec.topology);
  out->append(",\n");
  out->append(in3).append("\"routing\": ");
  append_quoted(out, spec.routing);
  out->append(",\n");
  out->append(in3).append("\"nodes\": ").append(std::to_string(spec.nodes));
  out->append(",\n");
  out->append(in3).append("\"link_bandwidth\": ");
  append_quoted(out, canonical_bandwidth(spec.link_bandwidth));
  out->append(",\n");
  out->append(in3).append("\"link_latency\": ");
  append_quoted(out, canonical_duration(spec.link_latency));
  out->append(",\n");
  out->append(in3).append("\"switch_latency\": ");
  append_quoted(out, canonical_duration(spec.switch_latency));
  out->append(",\n");
  out->append(in3).append("\"xbar_factor\": ")
      .append(shortest_double(spec.xbar_factor))
      .append(",\n");
  out->append(in3).append("\"concentration\": ")
      .append(std::to_string(spec.concentration));
  // Default-valued long_link_latency is omitted so pre-existing specs
  // (and their golden bytes) round-trip unchanged.
  if (spec.long_link_latency != 0) {
    out->append(",\n").append(in3).append("\"long_link_latency\": ");
    append_quoted(out, canonical_duration(spec.long_link_latency));
  }
  out->append("\n");
  out->append(in2).append("},\n");
  out->append(in2).append("\"transport\": {\n");
  out->append(in3).append("\"kind\": ");
  append_quoted(out, spec.transport);
  out->append(",\n");
  out->append(in3).append("\"rdma_slots\": ")
      .append(std::to_string(spec.rdma_slots));
  // Default-valued doorbell_batch is omitted so pre-existing specs (and
  // their golden bytes) round-trip unchanged.
  if (spec.doorbell_batch != 1) {
    out->append(",\n").append(in3).append("\"doorbell_batch\": ")
        .append(std::to_string(spec.doorbell_batch));
  }
  out->append("\n");
  out->append(in2).append("},\n");
  out->append(in2).append("\"motif\": {\n");
  out->append(in3).append("\"kind\": ");
  append_quoted(out, spec.motif);
  if (spec.motif_params.empty()) {
    out->append("\n");
  } else {
    out->append(",\n");
    out->append(in3).append("\"params\": {\n");
    std::size_t i = 0;
    for (const auto& [key, value] : spec.motif_params) {
      out->append(in3).append("  ");
      append_quoted(out, key);
      out->append(": ");
      append_quoted(out, value);
      out->append(++i < spec.motif_params.size() ? ",\n" : "\n");
    }
    out->append(in3).append("}\n");
  }
  out->append(in2).append("},\n");
  out->append(in2).append("\"seed\": ").append(std::to_string(spec.seed));
  out->append(",\n");
  // Default-valued par_shards is omitted so pre-existing specs (and their
  // golden bytes) round-trip unchanged.
  if (spec.par_shards != 1) {
    out->append(in2).append("\"par_shards\": ")
        .append(std::to_string(spec.par_shards));
    out->append(",\n");
  }
  out->append(in2).append("\"sample_period\": ");
  append_quoted(out, canonical_duration(spec.sample_period));
  if (!spec.metrics_path.empty()) {
    out->append(",\n").append(in2).append("\"metrics\": ");
    append_quoted(out, spec.metrics_path);
  }
  // Like par_shards: output fields default to off and are
  // omitted then, keeping pre-existing specs' golden bytes unchanged.
  if (!spec.flight_recorder_path.empty()) {
    out->append(",\n").append(in2).append("\"flight_recorder\": ");
    append_quoted(out, spec.flight_recorder_path);
  }
  if (spec.flight_recorder_capacity != 0) {
    out->append(",\n")
        .append(in2)
        .append("\"flight_recorder_capacity\": ")
        .append(std::to_string(spec.flight_recorder_capacity));
  }
  if (!spec.pdes_profile_path.empty()) {
    out->append(",\n").append(in2).append("\"pdes_profile\": ");
    append_quoted(out, spec.pdes_profile_path);
  }
  out->append("\n").append(indent).append("}");
}

bool parse_spec_object(const obs::JsonValue& root, ScenarioSpec* out,
                       std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!root.is_object()) return fail("scenario: not a JSON object");
  ScenarioSpec spec;
  if (const auto* v = root.find("name")) spec.name = v->string;
  const auto* topo = root.find("topology");
  if (topo != nullptr) {
    if (!topo->is_object()) return fail("scenario: topology is not an object");
    if (const auto* v = topo->find("kind")) spec.topology = v->string;
    if (const auto* v = topo->find("routing")) spec.routing = v->string;
    if (const auto* v = topo->find("nodes"))
      spec.nodes = static_cast<int>(v->as_i64(spec.nodes));
    if (const auto* v = topo->find("link_bandwidth")) {
      if (!parse_bandwidth(v->string, &spec.link_bandwidth) ||
          !positive_rate(spec.link_bandwidth.bits_per_sec))
        return fail("scenario: bad link_bandwidth \"" + v->string +
                    "\" (must be > 0)");
    }
    if (const auto* v = topo->find("link_latency")) {
      if (!parse_duration(v->string, &spec.link_latency))
        return fail("scenario: bad link_latency \"" + v->string + "\"");
    }
    if (const auto* v = topo->find("long_link_latency")) {
      if (!parse_duration(v->string, &spec.long_link_latency))
        return fail("scenario: bad long_link_latency \"" + v->string + "\"");
    }
    if (const auto* v = topo->find("switch_latency")) {
      if (!parse_duration(v->string, &spec.switch_latency))
        return fail("scenario: bad switch_latency \"" + v->string + "\"");
    }
    if (const auto* v = topo->find("xbar_factor")) {
      spec.xbar_factor = v->as_double(spec.xbar_factor);
      if (!positive_rate(spec.xbar_factor))
        return fail("scenario: xbar_factor must be > 0");
    }
    if (const auto* v = topo->find("concentration"))
      spec.concentration = static_cast<int>(v->as_i64(spec.concentration));
  }
  const auto* transport = root.find("transport");
  if (transport != nullptr) {
    if (!transport->is_object())
      return fail("scenario: transport is not an object");
    if (const auto* v = transport->find("kind")) spec.transport = v->string;
    if (const auto* v = transport->find("rdma_slots"))
      spec.rdma_slots = static_cast<int>(v->as_i64(spec.rdma_slots));
    if (const auto* v = transport->find("doorbell_batch")) {
      spec.doorbell_batch = static_cast<int>(v->as_i64(spec.doorbell_batch));
      if (spec.doorbell_batch < 1)
        return fail("scenario: doorbell_batch must be >= 1");
    }
  }
  const auto* motif = root.find("motif");
  if (motif != nullptr) {
    if (!motif->is_object()) return fail("scenario: motif is not an object");
    if (const auto* v = motif->find("kind")) spec.motif = v->string;
    if (const auto* params = motif->find("params")) {
      if (!params->is_object())
        return fail("scenario: motif params is not an object");
      for (const auto& [key, value] : params->object) {
        if (!value.is_string())
          return fail("scenario: motif param \"" + key +
                      "\" must be a string");
        spec.motif_params[key] = value.string;
      }
    }
  }
  if (const auto* v = root.find("seed")) spec.seed = v->as_u64(spec.seed);
  if (const auto* v = root.find("par_shards")) {
    spec.par_shards = static_cast<int>(
        v->as_u64(static_cast<std::uint64_t>(spec.par_shards)));
    if (spec.par_shards < 1)
      return fail("scenario: par_shards must be >= 1");
  }
  if (const auto* v = root.find("sample_period")) {
    if (!parse_duration(v->string, &spec.sample_period))
      return fail("scenario: bad sample_period \"" + v->string + "\"");
  }
  if (const auto* v = root.find("metrics")) spec.metrics_path = v->string;
  if (const auto* v = root.find("flight_recorder"))
    spec.flight_recorder_path = v->string;
  if (const auto* v = root.find("flight_recorder_capacity"))
    spec.flight_recorder_capacity = v->as_u64(spec.flight_recorder_capacity);
  if (const auto* v = root.find("pdes_profile"))
    spec.pdes_profile_path = v->string;
  *out = std::move(spec);
  return true;
}

}  // namespace

std::string to_json(const ScenarioSpec& spec) {
  std::string out;
  out.append("{\n  \"format\": ");
  append_quoted(&out, kScenarioSchema);
  out.append(",\n  \"scenario\": ");
  append_spec_object(&out, spec, "  ");
  out.append("\n}\n");
  return out;
}

std::string to_json(const GridSpec& grid) {
  std::string out;
  out.append("{\n  \"format\": ");
  append_quoted(&out, kGridSchema);
  out.append(",\n  \"figure\": ");
  append_quoted(&out, grid.figure);
  out.append(",\n  \"motif_label\": ");
  append_quoted(&out, grid.motif_label);
  out.append(",\n  \"cases\": [");
  for (std::size_t i = 0; i < grid.cases.size(); ++i) {
    if (i > 0) out.append(", ");
    append_quoted(&out, grid.cases[i]);
  }
  out.append("],\n  \"gbps\": [");
  for (std::size_t i = 0; i < grid.gbps.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(shortest_double(grid.gbps[i]));
  }
  out.append("],\n  \"base\": ");
  append_spec_object(&out, grid.base, "  ");
  out.append("\n}\n");
  return out;
}

bool spec_from_json(const std::string& text, ScenarioSpec* out,
                    std::string* error) {
  obs::JsonValue root;
  if (!obs::json_parse(text, &root, error)) return false;
  const auto* format = root.find("format");
  if (format == nullptr || format->string != kScenarioSchema) {
    if (error != nullptr)
      *error = std::string("scenario: expected format \"") + kScenarioSchema +
               "\"";
    return false;
  }
  const auto* spec = root.find("scenario");
  if (spec == nullptr) {
    if (error != nullptr) *error = "scenario: missing \"scenario\" object";
    return false;
  }
  return parse_spec_object(*spec, out, error);
}

bool grid_from_json(const std::string& text, GridSpec* out,
                    std::string* error) {
  obs::JsonValue root;
  if (!obs::json_parse(text, &root, error)) return false;
  const auto* format = root.find("format");
  if (format == nullptr || format->string != kGridSchema) {
    if (error != nullptr)
      *error = std::string("grid: expected format \"") + kGridSchema + "\"";
    return false;
  }
  GridSpec grid;
  if (const auto* v = root.find("figure")) grid.figure = v->string;
  if (const auto* v = root.find("motif_label")) grid.motif_label = v->string;
  if (const auto* v = root.find("cases")) {
    grid.cases.clear();
    for (const auto& item : v->array) grid.cases.push_back(item.string);
  }
  if (const auto* v = root.find("gbps")) {
    grid.gbps.clear();
    for (const auto& item : v->array) {
      grid.gbps.push_back(item.as_double());
      if (!positive_rate(grid.gbps.back())) {
        if (error != nullptr) *error = "grid: gbps entries must be > 0";
        return false;
      }
    }
  }
  const auto* base = root.find("base");
  if (base == nullptr) {
    if (error != nullptr) *error = "grid: missing \"base\" scenario";
    return false;
  }
  if (!parse_spec_object(*base, &grid.base, error)) return false;
  *out = std::move(grid);
  return true;
}

bool looks_like_grid(const std::string& text) {
  obs::JsonValue root;
  std::string error;
  if (!obs::json_parse(text, &root, &error)) return false;
  const auto* format = root.find("format");
  return format != nullptr && format->string == kGridSchema;
}

bool apply_cli_overlay(const Cli& cli, ScenarioSpec* spec,
                       std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  spec->name = cli.get("name", spec->name);
  spec->topology = cli.get("topology", spec->topology);
  spec->routing = cli.get("routing", spec->routing);
  spec->nodes = static_cast<int>(cli.get_int("nodes", spec->nodes));
  if (cli.has("bandwidth")) {
    const std::string text = cli.get("bandwidth", "");
    if (!parse_bandwidth(text, &spec->link_bandwidth) ||
        !positive_rate(spec->link_bandwidth.bits_per_sec))
      return fail("bad --bandwidth \"" + text + "\" (must be > 0)");
  }
  if (cli.has("link-latency")) {
    const std::string text = cli.get("link-latency", "");
    if (!parse_duration(text, &spec->link_latency))
      return fail("bad --link-latency \"" + text + "\"");
  }
  if (cli.has("long-link-latency")) {
    const std::string text = cli.get("long-link-latency", "");
    if (!parse_duration(text, &spec->long_link_latency))
      return fail("bad --long-link-latency \"" + text + "\"");
  }
  if (cli.has("switch-latency")) {
    const std::string text = cli.get("switch-latency", "");
    if (!parse_duration(text, &spec->switch_latency))
      return fail("bad --switch-latency \"" + text + "\"");
  }
  spec->xbar_factor = cli.get_double("xbar-factor", spec->xbar_factor);
  if (!positive_rate(spec->xbar_factor))
    return fail("bad --xbar-factor (must be > 0)");
  spec->concentration =
      static_cast<int>(cli.get_int("concentration", spec->concentration));
  spec->transport = cli.get("transport", spec->transport);
  spec->rdma_slots =
      static_cast<int>(cli.get_int("rdma-slots", spec->rdma_slots));
  spec->doorbell_batch =
      static_cast<int>(cli.get_int("doorbell-batch", spec->doorbell_batch));
  if (spec->doorbell_batch < 1)
    return fail("bad --doorbell-batch (must be >= 1)");
  spec->motif = cli.get("motif", spec->motif);
  for (const auto& [key, value] : cli.take_prefixed("motif.")) {
    spec->motif_params[key] = value;
  }
  spec->seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(spec->seed)));
  spec->par_shards =
      static_cast<int>(cli.get_int("par-shards", spec->par_shards));
  if (spec->par_shards < 1)
    return fail("bad --par-shards (must be >= 1)");
  if (cli.has("sample-period")) {
    const std::string text = cli.get("sample-period", "");
    if (!parse_duration(text, &spec->sample_period))
      return fail("bad --sample-period \"" + text + "\"");
  }
  spec->metrics_path = cli.get("metrics", spec->metrics_path);
  spec->flight_recorder_path =
      cli.get("flight-recorder", spec->flight_recorder_path);
  spec->flight_recorder_capacity = static_cast<std::uint64_t>(cli.get_int(
      "flight-recorder-capacity",
      static_cast<std::int64_t>(spec->flight_recorder_capacity)));
  spec->pdes_profile_path = cli.get("pdes-profile", spec->pdes_profile_path);
  return true;
}

const std::string* ParamReader::raw(const std::string& key) {
  consumed_[key] = true;
  const auto it = params_->find(key);
  return it == params_->end() ? nullptr : &it->second;
}

int ParamReader::get_int(const std::string& key, int fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  const long value = std::strtol(text->c_str(), &end, 10);
  if (end == text->c_str() || *end != '\0') {
    bad_.push_back(key);
    return fallback;
  }
  return static_cast<int>(value);
}

double ParamReader::get_double(const std::string& key, double fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  // from_chars, not strtod: locale-independent parsing so a comma-decimal
  // LC_NUMERIC cannot alter what a spec's "2.5" means (byte-stability).
  const char* first = text->data();
  const char* last = text->data() + text->size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || first == last) {
    bad_.push_back(key);
    return fallback;
  }
  return value;
}

std::uint64_t ParamReader::get_size(const std::string& key,
                                    std::uint64_t fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  std::uint64_t value = 0;
  if (!parse_size(*text, &value)) {
    bad_.push_back(key);
    return fallback;
  }
  return value;
}

Time ParamReader::get_duration(const std::string& key, Time fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  Time value = 0;
  if (!parse_duration(*text, &value)) {
    bad_.push_back(key);
    return fallback;
  }
  return value;
}

std::vector<std::string> ParamReader::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : *params_) {
    if (!consumed_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace rvma::scenario
