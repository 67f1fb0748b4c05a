// Schema checker for machine-readable CI artifacts (used by ci.sh).
//
// Usage: validate_bench_json FILE [FILE...]
// Exits 0 iff every file parses as JSON and matches its schema: BENCH_*.json
// run artifacts (schema documented in src/obs/artifact.hpp) by default, the
// vsgc_lint findings artifact when the document carries "tool": "vsgc_lint",
// the include-graph artifact (LINT_deps.json) when it carries
// "tool": "vsgc_deps", or the committed perf trajectory (BENCH_perf.json)
// when it carries "tool": "perfbench". Prints one line per file.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using vsgc::obs::JsonValue;

struct Check {
  bool ok = true;
  std::vector<std::string> problems;

  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      problems.push_back(what);
    }
  }
};

/// Schema of tools/vsgc_lint --json output (lint::Linter::to_json).
Check validate_lint(const JsonValue& root) {
  Check c;
  const JsonValue* version = root.find("schema_version");
  c.require(version != nullptr && version->is_int() && version->as_int() == 1,
            "missing field 'schema_version' == 1");
  const JsonValue* lint_root = root.find("root");
  c.require(lint_root != nullptr && lint_root->is_string(),
            "missing string field 'root'");
  for (const char* field : {"files_scanned", "unsuppressed", "suppressed"}) {
    const JsonValue* v = root.find(field);
    c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
              std::string("missing non-negative integer '") + field + "'");
  }
  const JsonValue* findings = root.find("findings");
  c.require(findings != nullptr && findings->is_array(),
            "missing array field 'findings'");
  if (findings == nullptr || !findings->is_array()) return c;
  std::int64_t suppressed = 0;
  for (std::size_t i = 0; i < findings->size(); ++i) {
    const JsonValue& row = findings->at(i);
    const std::string at = "findings[" + std::to_string(i) + "]";
    c.require(row.is_object(), at + " is not an object");
    if (!row.is_object()) continue;
    for (const char* field : {"file", "rule", "message"}) {
      const JsonValue* v = row.find(field);
      c.require(v != nullptr && v->is_string() && !v->as_string().empty(),
                at + " missing non-empty string '" + field + "'");
    }
    const JsonValue* line = row.find("line");
    c.require(line != nullptr && line->is_int() && line->as_int() >= 1,
              at + " missing 1-based integer 'line'");
    const JsonValue* sup = row.find("suppressed");
    c.require(sup != nullptr && sup->is_bool(),
              at + " missing boolean 'suppressed'");
    if (sup != nullptr && sup->is_bool() && sup->as_bool()) {
      ++suppressed;
      const JsonValue* just = row.find("justification");
      c.require(just != nullptr && just->is_string() &&
                    !just->as_string().empty(),
                at + " suppressed without a non-empty 'justification'");
    }
  }
  const JsonValue* sup_total = root.find("suppressed");
  const JsonValue* unsup_total = root.find("unsuppressed");
  if (sup_total != nullptr && sup_total->is_int() && unsup_total != nullptr &&
      unsup_total->is_int()) {
    c.require(sup_total->as_int() == suppressed,
              "'suppressed' disagrees with the findings array");
    c.require(unsup_total->as_int() + suppressed ==
                  static_cast<std::int64_t>(findings->size()),
              "'unsuppressed' + 'suppressed' != findings count");
  }
  return c;
}

/// Schema of tools/vsgc_lint --deps-json output (LINT_deps.json,
/// lint::deps_to_json): the include-graph/sim-purity artifact the ci.sh
/// architecture gates read.
Check validate_deps(const JsonValue& root) {
  Check c;
  const JsonValue* version = root.find("schema_version");
  c.require(version != nullptr && version->is_int() && version->as_int() == 1,
            "missing field 'schema_version' == 1");
  const JsonValue* deps_root = root.find("root");
  c.require(deps_root != nullptr && deps_root->is_string(),
            "missing string field 'root'");
  for (const char* field : {"files", "internal_edges", "external_includes",
                            "cycles", "layer_violations"}) {
    const JsonValue* v = root.find(field);
    c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
              std::string("missing non-negative integer '") + field + "'");
  }
  const JsonValue* modules = root.find("modules");
  c.require(modules != nullptr && modules->is_array() && modules->size() > 0,
            "missing non-empty array field 'modules'");
  if (modules != nullptr && modules->is_array()) {
    for (std::size_t i = 0; i < modules->size(); ++i) {
      const JsonValue& row = modules->at(i);
      const std::string at = "modules[" + std::to_string(i) + "]";
      c.require(row.is_object(), at + " is not an object");
      if (!row.is_object()) continue;
      const JsonValue* name = row.find("name");
      c.require(name != nullptr && name->is_string() &&
                    !name->as_string().empty(),
                at + " missing non-empty string 'name'");
      const JsonValue* rank = row.find("rank");
      c.require(rank != nullptr && rank->is_int(),
                at + " missing integer 'rank'");
      const JsonValue* files = row.find("files");
      c.require(files != nullptr && files->is_int() && files->as_int() >= 1,
                at + " missing integer 'files' >= 1");
    }
  }
  const JsonValue* edges = root.find("module_edges");
  c.require(edges != nullptr && edges->is_array(),
            "missing array field 'module_edges'");
  if (edges != nullptr && edges->is_array()) {
    for (std::size_t i = 0; i < edges->size(); ++i) {
      const JsonValue& row = edges->at(i);
      const std::string at = "module_edges[" + std::to_string(i) + "]";
      c.require(row.is_object(), at + " is not an object");
      if (!row.is_object()) continue;
      for (const char* field : {"from", "to"}) {
        const JsonValue* v = row.find(field);
        c.require(v != nullptr && v->is_string() && !v->as_string().empty(),
                  at + " missing non-empty string '" + field + "'");
      }
      const JsonValue* count = row.find("count");
      c.require(count != nullptr && count->is_int() && count->as_int() >= 1,
                at + " missing integer 'count' >= 1");
    }
  }
  const JsonValue* sim = root.find("sim_purity");
  c.require(sim != nullptr && sim->is_object(),
            "missing object field 'sim_purity'");
  if (sim != nullptr && sim->is_object()) {
    for (const char* field : {"entries", "ledgered", "unledgered", "stale"}) {
      const JsonValue* v = sim->find(field);
      c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
                std::string("missing non-negative integer 'sim_purity.") +
                    field + "'");
    }
    const JsonValue* entries = sim->find("entries");
    const JsonValue* ledgered = sim->find("ledgered");
    const JsonValue* unledgered = sim->find("unledgered");
    if (entries != nullptr && entries->is_int() && ledgered != nullptr &&
        ledgered->is_int() && unledgered != nullptr && unledgered->is_int()) {
      c.require(entries->as_int() ==
                    ledgered->as_int() + unledgered->as_int(),
                "'sim_purity.entries' != ledgered + unledgered");
    }
  }
  return c;
}

/// Schema for BENCH_throughput.json: E2 rows keyed by group size. The
/// byte-overhead columns are part of the E2 table, so absence must fail
/// loudly; a row carrying a "case" field belongs to no known table.
void validate_throughput(const JsonValue& results, Check& c) {
  std::size_t group_rows = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonValue& row = results.at(i);
    if (!row.is_object()) continue;
    const std::string at = "results[" + std::to_string(i) + "]";
    if (row.find("case") != nullptr) {
      c.require(false, at + " has a 'case' field; throughput rows are E2 "
                            "group-size rows only");
      continue;
    }
    ++group_rows;
    const JsonValue* gs = row.find("group_size");
    c.require(gs != nullptr && gs->is_int() && gs->as_int() >= 2,
              at + " missing integer 'group_size' >= 2");
    const JsonValue* pb = row.find("payload_bytes");
    c.require(pb != nullptr && pb->is_int() && pb->as_int() > 0,
              at + " missing positive integer 'payload_bytes'");
    for (const char* field : {"msgs_per_sec", "avg_latency_ms",
                              "sender_bytes_per_msg",
                              "overhead_bytes_per_msg"}) {
      const JsonValue* v = row.find(field);
      c.require(v != nullptr && v->is_number() && v->as_double() > 0,
                at + " missing positive '" + field + "'");
    }
  }
  c.require(group_rows > 0, "throughput needs at least one group-size row");
}

/// The first metrics row named `name` in one of `sections`, or null.
const JsonValue* find_metric(
    const JsonValue& root, const std::string& name,
    std::initializer_list<const char*> sections = {"counters", "gauges",
                                                   "histograms"}) {
  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return nullptr;
  for (const char* section : sections) {
    const JsonValue* rows = metrics->find(section);
    if (rows == nullptr || !rows->is_array()) continue;
    for (const JsonValue& row : rows->items()) {
      const JsonValue* n = row.find("name");
      if (n != nullptr && n->is_string() && n->as_string() == name) {
        return &row;
      }
    }
  }
  return nullptr;
}

/// The metrics each bench's claim is read from: its artifact must carry
/// every one of them, in any metrics section.
const std::map<std::string, std::vector<std::string>> kClaimMetrics = {
    {"throughput", {"span.msg.e2e_us"}},
    {"view_change", {"span.view.e2e_us", "gcs.view_change_latency_us"}},
    {"blocking", {"gcs.blocking_window_us"}},
    {"obsolete_views", {"gcs.obsolete_views"}},
};

/// Schema for tools/vsgc_trace --json output (BENCH_tracelat.json,
/// obs::append_tracelat_results + obs::record_trace_metrics): exactly one
/// "summary" row plus per-phase "msg_phase"/"view_phase" rows with known
/// phase names, and the nine span.* histograms, each holding exactly as many
/// samples as its phase row counts. The CI trace gate reads orphan counts
/// from here, so absence must fail loudly.
void validate_tracelat(const JsonValue& root, const JsonValue& results,
                       Check& c) {
  // (row, phase) -> the histogram derived from the same samples.
  const std::map<std::pair<std::string, std::string>, std::string>
      histogram_of = {
          {{"msg_phase", "sender_queue"}, "span.msg.sender_queue_us"},
          {{"msg_phase", "wire"}, "span.msg.wire_us"},
          {{"msg_phase", "gate"}, "span.msg.gate_us"},
          {{"msg_phase", "end_to_end"}, "span.msg.e2e_us"},
          {{"view_phase", "blocking"}, "span.view.blocking_us"},
          {{"view_phase", "sync_send"}, "span.view.sync_send_us"},
          {{"view_phase", "membership_wait"}, "span.view.membership_wait_us"},
          {{"view_phase", "install_wait"}, "span.view.install_wait_us"},
          {{"view_phase", "end_to_end"}, "span.view.e2e_us"},
      };
  for (const auto& [row, name] : histogram_of) {
    c.require(find_metric(root, name, {"histograms"}) != nullptr,
              "tracelat artifact missing histogram '" + name + "'");
  }
  std::size_t summaries = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonValue& row = results.at(i);
    if (!row.is_object()) continue;
    const std::string at = "results[" + std::to_string(i) + "]";
    const JsonValue* kind = row.find("row");
    c.require(kind != nullptr && kind->is_string(),
              at + " missing string 'row'");
    if (kind == nullptr || !kind->is_string()) continue;
    const std::string name = kind->as_string();
    if (name == "summary") {
      ++summaries;
      for (const char* field :
           {"messages", "legs_expected", "legs_delivered", "orphans",
            "orphans_unexplained", "retransmit_packets", "forward_copies",
            "view_changes", "end_at_us"}) {
        const JsonValue* v = row.find(field);
        c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
                  at + " missing non-negative integer '" + field + "'");
      }
    } else if (name == "msg_phase" || name == "view_phase") {
      for (const char* field :
           {"count", "p50_us", "p95_us", "p99_us", "max_us"}) {
        const JsonValue* v = row.find(field);
        c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
                  at + " missing non-negative integer '" + field + "'");
      }
      const JsonValue* phase = row.find("phase");
      c.require(phase != nullptr && phase->is_string(),
                at + " missing string 'phase'");
      if (phase == nullptr || !phase->is_string()) continue;
      const std::string p = phase->as_string();
      const auto h = histogram_of.find({name, p});
      c.require(h != histogram_of.end(),
                at + " unknown " + name + " phase '" + p + "'");
      if (h == histogram_of.end()) continue;
      const JsonValue* hist = find_metric(root, h->second, {"histograms"});
      const JsonValue* hist_count =
          hist == nullptr ? nullptr : hist->find("count");
      const JsonValue* count = row.find("count");
      if (hist_count == nullptr || count == nullptr) continue;
      c.require(hist_count->dump() == count->dump(),
                at + " " + name + " '" + p + "' count " + count->dump() +
                    " != histogram '" + h->second + "' count " +
                    hist_count->dump());
    } else {
      c.require(false, at + " unknown tracelat row '" + name + "'");
    }
  }
  c.require(summaries == 1, "tracelat needs exactly one summary row");
}

/// Schema for BENCH_scale.json (bench_scale, the E12 N-sweep): at least two
/// "sweep" rows with strictly increasing n, exactly one "fit" row per gated
/// metric, and exactly one "determinism" row that must report identical
/// same-seed traces. The CI sublinear gate reads the fit exponents from
/// here, so absence must fail loudly.
void validate_scale(const JsonValue& results, Check& c) {
  std::size_t sweeps = 0, determinism = 0;
  std::size_t fit_latency = 0, fit_resident = 0;
  std::int64_t last_n = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JsonValue& row = results.at(i);
    if (!row.is_object()) continue;
    const std::string at = "results[" + std::to_string(i) + "]";
    const JsonValue* kase = row.find("case");
    c.require(kase != nullptr && kase->is_string(),
              at + " missing string 'case'");
    if (kase == nullptr || !kase->is_string()) continue;
    const std::string name = kase->as_string();
    if (name == "sweep") {
      ++sweeps;
      const JsonValue* n = row.find("n");
      c.require(n != nullptr && n->is_int() && n->as_int() > 0,
                at + " missing positive integer 'n'");
      if (n != nullptr && n->is_int()) {
        c.require(n->as_int() > last_n,
                  at + " sweep rows must have strictly increasing 'n'");
        last_n = n->as_int();
      }
      const JsonValue* groups = row.find("groups");
      c.require(groups != nullptr && groups->is_int() &&
                    groups->as_int() >= 2,
                at + " missing integer 'groups' >= 2");
      for (const char* field : {"view_change_ms", "flash_join_ms",
                                "msgs_per_sec", "bytes_per_msg",
                                "resident_bytes_per_member"}) {
        const JsonValue* v = row.find(field);
        c.require(v != nullptr && v->is_number() && v->as_double() > 0,
                  at + " missing positive '" + field + "'");
      }
      for (const char* field : {"deliveries", "waves", "checker_tolerated",
                                "sack_runs_sent", "sack_suppressed"}) {
        const JsonValue* v = row.find(field);
        c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
                  at + " missing non-negative integer '" + field + "'");
      }
    } else if (name == "fit") {
      const JsonValue* metric = row.find("metric");
      c.require(metric != nullptr && metric->is_string(),
                at + " missing string 'metric'");
      if (metric != nullptr && metric->is_string()) {
        const std::string m = metric->as_string();
        if (m == "view_change_ms") ++fit_latency;
        else if (m == "resident_bytes_per_member") ++fit_resident;
        else c.require(false, at + " unknown fit metric '" + m + "'");
      }
      const JsonValue* exp = row.find("exponent");
      c.require(exp != nullptr && exp->is_number(),
                at + " missing numeric 'exponent'");
      const JsonValue* sub = row.find("sublinear");
      c.require(sub != nullptr && sub->is_bool(),
                at + " missing boolean 'sublinear'");
    } else if (name == "determinism") {
      ++determinism;
      const JsonValue* ident = row.find("identical");
      c.require(ident != nullptr && ident->is_bool(),
                at + " missing boolean 'identical'");
      // Not a perf number but an invariant: same-seed scale runs must replay
      // byte-identically, so a false here is a schema-level failure.
      if (ident != nullptr && ident->is_bool()) {
        c.require(ident->as_bool(),
                  at + " same-seed determinism check reported divergence");
      }
      const JsonValue* bytes = row.find("trace_bytes");
      c.require(bytes != nullptr && bytes->is_int() && bytes->as_int() > 0,
                at + " missing positive integer 'trace_bytes'");
    } else {
      c.require(false, at + " unknown scale case '" + name + "'");
    }
  }
  c.require(sweeps >= 2, "scale needs at least two sweep rows");
  c.require(fit_latency == 1 && fit_resident == 1,
            "scale needs exactly one fit row per gated metric "
            "(view_change_ms, resident_bytes_per_member)");
  c.require(determinism == 1, "scale needs exactly one determinism row");
}

/// Schema of the committed perf trajectory (BENCH_perf.json, appended to by
/// tools/perf_trajectory.py), checked against `benchmark`, the BENCHMARK.json
/// beside it: each row holds, for every workload BENCHMARK.json names, the
/// final JSON line of at least three perfbench runs and the quartiles of each
/// end-to-end metric over them, with the environment it was measured in. Only
/// the shape is checked; no row is compared with another.
Check validate_perf(const JsonValue& root, const JsonValue& benchmark) {
  Check c;
  const JsonValue* names = benchmark.find("workloads");
  const JsonValue* end_to_end = benchmark.find("end_to_end");
  c.require(names != nullptr && names->is_array() && end_to_end != nullptr &&
                end_to_end->is_array(),
            "BENCHMARK.json lacks arrays 'workloads' and 'end_to_end'");
  if (!c.ok) return c;
  for (const JsonValue* list : {names, end_to_end}) {
    for (const JsonValue& decl : list->items()) {
      const JsonValue* name = decl.find("name");
      const JsonValue* unit = decl.find("unit");
      c.require(name != nullptr && name->is_string() &&
                    (list == names || (unit != nullptr && unit->is_string())),
                "BENCHMARK.json entry without string 'name' (and 'unit')");
    }
  }
  if (!c.ok) return c;
  const JsonValue* version = root.find("schema_version");
  c.require(version != nullptr && version->is_int() && version->as_int() == 1,
            "missing field 'schema_version' == 1");
  const JsonValue* rows = root.find("rows");
  c.require(rows != nullptr && rows->is_array() && rows->size() > 0,
            "missing non-empty array field 'rows'");
  if (rows == nullptr || !rows->is_array()) return c;
  // `m` is `metrics.<name>` of a run, or `summary.<name>`; both carry the
  // unit BENCHMARK.json declares.
  const auto has_unit = [](const JsonValue* m, const JsonValue& decl) {
    const JsonValue* unit = m != nullptr ? m->find("unit") : nullptr;
    return unit != nullptr && unit->is_string() &&
           unit->as_string() == decl.find("unit")->as_string();
  };
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const JsonValue& row = rows->at(i);
    const std::string at = "rows[" + std::to_string(i) + "]";
    c.require(row.is_object(), at + " is not an object");
    if (!row.is_object()) continue;
    for (const char* field : {"label", "host", "compiler"}) {
      const JsonValue* v = row.find(field);
      c.require(v != nullptr && v->is_string() && !v->as_string().empty(),
                at + " missing non-empty string '" + field + "'");
    }
    const JsonValue* digest = row.find("source_sha256");
    c.require(digest != nullptr && digest->is_string() &&
                  digest->as_string().size() == 64 &&
                  digest->as_string().find_first_not_of(
                      "0123456789abcdef") == std::string::npos,
              at + " missing hex string 'source_sha256'");
    const JsonValue* nproc = row.find("nproc");
    c.require(nproc != nullptr && nproc->is_int() && nproc->as_int() >= 1,
              at + " missing positive integer 'nproc'");
    const JsonValue* workloads = row.find("workloads");
    c.require(workloads != nullptr && workloads->is_object(),
              at + " missing object field 'workloads'");
    if (workloads == nullptr || !workloads->is_object()) continue;
    for (const JsonValue& decl : names->items()) {
      const std::string name = decl.find("name")->as_string();
      const std::string wat = at + ".workloads." + name;
      const JsonValue* w = workloads->find(name);
      c.require(w != nullptr && w->is_object(), wat + " missing");
      if (w == nullptr || !w->is_object()) continue;
      const JsonValue* runs = w->find("runs");
      c.require(runs != nullptr && runs->is_array() && runs->size() >= 3,
                wat + " missing array 'runs' of at least 3 runs");
      if (runs == nullptr || !runs->is_array()) continue;
      // metric name -> [min, max] over the runs.
      std::map<std::string, std::pair<double, double>> range;
      for (std::size_t r = 0; r < runs->size(); ++r) {
        const std::string rat = wat + ".runs[" + std::to_string(r) + "]";
        const JsonValue* reps = runs->at(r).find("reps");
        c.require(reps != nullptr && reps->is_int() && reps->as_int() >= 1,
                  rat + " missing positive integer 'reps'");
        const JsonValue* result = runs->at(r).find("result");
        c.require(result != nullptr && result->is_object(),
                  rat + " missing object field 'result'");
        if (result == nullptr || !result->is_object()) continue;
        const JsonValue* correct = result->find("correct");
        c.require(correct != nullptr && correct->is_bool() &&
                      correct->as_bool(),
                  rat + ".result.correct is not true");
        for (const char* field : {"attempted", "failed"}) {
          const JsonValue* v = result->find(field);
          c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
                    rat + ".result missing non-negative integer '" + field +
                        "'");
        }
        const JsonValue* metrics = result->find("metrics");
        c.require(metrics != nullptr && metrics->is_object(),
                  rat + ".result missing object field 'metrics'");
        if (metrics == nullptr || !metrics->is_object()) continue;
        for (const JsonValue& metric : end_to_end->items()) {
          const std::string& mname = metric.find("name")->as_string();
          const JsonValue* m = metrics->find(mname);
          const JsonValue* value = m != nullptr ? m->find("value") : nullptr;
          c.require(value != nullptr && value->is_number() &&
                        has_unit(m, metric),
                    rat + " missing metric '" + mname +
                        "' {value, unit as in BENCHMARK.json}");
          if (value == nullptr || !value->is_number()) continue;
          const double v = value->as_double();
          const auto it = range.try_emplace(mname, v, v).first;
          it->second.first = std::min(it->second.first, v);
          it->second.second = std::max(it->second.second, v);
        }
      }
      const JsonValue* summary = w->find("summary");
      c.require(summary != nullptr && summary->is_object(),
                wat + " missing object field 'summary'");
      if (summary == nullptr || !summary->is_object()) continue;
      for (const JsonValue& metric : end_to_end->items()) {
        const std::string& mname = metric.find("name")->as_string();
        const JsonValue* s = summary->find(mname);
        const JsonValue* q1 = s != nullptr ? s->find("q1") : nullptr;
        const JsonValue* median = s != nullptr ? s->find("median") : nullptr;
        const JsonValue* q3 = s != nullptr ? s->find("q3") : nullptr;
        const bool shaped = q1 != nullptr && q1->is_number() &&
                            median != nullptr && median->is_number() &&
                            q3 != nullptr && q3->is_number() &&
                            has_unit(s, metric);
        c.require(shaped, wat + ".summary missing metric '" + mname +
                              "' {unit, q1, median, q3}");
        const auto span = range.find(mname);
        if (!shaped || span == range.end()) continue;
        c.require(span->second.first <= q1->as_double() &&
                      q1->as_double() <= median->as_double() &&
                      median->as_double() <= q3->as_double() &&
                      q3->as_double() <= span->second.second,
                  wat + ".summary." + mname +
                      " is not min <= q1 <= median <= q3 <= max of its runs");
      }
    }
  }
  return c;
}

/// Parses the JSON file at `path`; on failure returns null and sets `error`.
JsonValue read_json(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open";
    return JsonValue();
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue root = JsonValue::parse(buf.str(), error);
  if (root.is_null() && !error->empty()) *error = "JSON parse error: " + *error;
  return root;
}

/// `path` names the file `root` was read from; the perf trajectory is
/// checked against the BENCHMARK.json in the same directory.
Check validate(const JsonValue& root, const std::string& path) {
  Check c;
  c.require(root.is_object(), "document is not a JSON object");
  if (!root.is_object()) return c;

  const JsonValue* tool = root.find("tool");
  if (tool != nullptr && tool->is_string() &&
      tool->as_string() == "vsgc_lint") {
    return validate_lint(root);
  }
  if (tool != nullptr && tool->is_string() &&
      tool->as_string() == "vsgc_deps") {
    return validate_deps(root);
  }
  if (tool != nullptr && tool->is_string() &&
      tool->as_string() == "perfbench") {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : path.substr(0, slash + 1);
    std::string error;
    const JsonValue benchmark = read_json(dir + "BENCHMARK.json", &error);
    c.require(error.empty(), dir + "BENCHMARK.json: " + error);
    return c.ok ? validate_perf(root, benchmark) : c;
  }

  const JsonValue* bench = root.find("bench");
  c.require(bench != nullptr && bench->is_string() &&
                !bench->as_string().empty(),
            "missing non-empty string field 'bench'");

  const JsonValue* version = root.find("schema_version");
  c.require(version != nullptr && version->is_int() && version->as_int() == 1,
            "missing field 'schema_version' == 1");

  const JsonValue* config = root.find("config");
  c.require(config != nullptr && config->is_object(),
            "missing object field 'config'");

  const JsonValue* results = root.find("results");
  c.require(results != nullptr && results->is_array(),
            "missing array field 'results'");
  if (results != nullptr && results->is_array()) {
    c.require(results->size() > 0, "'results' is empty");
    for (std::size_t i = 0; i < results->size(); ++i) {
      c.require(results->at(i).is_object(),
                "'results[" + std::to_string(i) + "]' is not an object");
    }
    if (bench != nullptr && bench->is_string() &&
        bench->as_string() == "tracelat") {
      validate_tracelat(root, *results, c);
    }
    if (bench != nullptr && bench->is_string() &&
        bench->as_string() == "throughput") {
      validate_throughput(*results, c);
    }
    if (bench != nullptr && bench->is_string() &&
        bench->as_string() == "scale") {
      validate_scale(*results, c);
    }
  }

  if (bench != nullptr && bench->is_string()) {
    const auto claim = kClaimMetrics.find(bench->as_string());
    if (claim != kClaimMetrics.end()) {
      for (const std::string& name : claim->second) {
        c.require(find_metric(root, name) != nullptr,
                  claim->first + " artifact missing metric '" + name + "'");
      }
    }
  }

  const JsonValue* metrics = root.find("metrics");
  c.require(metrics != nullptr && metrics->is_object(),
            "missing object field 'metrics'");
  if (metrics != nullptr && metrics->is_object()) {
    for (const char* section : {"counters", "gauges", "histograms"}) {
      const JsonValue* arr = metrics->find(section);
      c.require(arr != nullptr && arr->is_array(),
                std::string("missing array field 'metrics.") + section + "'");
      if (arr == nullptr || !arr->is_array()) continue;
      for (const JsonValue& row : arr->items()) {
        c.require(row.find("name") != nullptr && row.find("name")->is_string(),
                  std::string("metrics.") + section + " row without 'name'");
        c.require(row.find("labels") != nullptr &&
                      row.find("labels")->is_object(),
                  std::string("metrics.") + section + " row without 'labels'");
      }
    }
  }

  const JsonValue* sim = root.find("sim");
  c.require(sim != nullptr && sim->is_object(), "missing object field 'sim'");
  if (sim != nullptr && sim->is_object()) {
    for (const char* field :
         {"events_executed", "peak_queue_depth", "sim_time_us"}) {
      const JsonValue* v = sim->find(field);
      c.require(v != nullptr && v->is_int() && v->as_int() >= 0,
                std::string("missing non-negative integer 'sim.") + field +
                    "'");
    }
    for (const char* field :
         {"wall_time_seconds", "events_per_wall_second",
          "wall_seconds_per_sim_second"}) {
      const JsonValue* v = sim->find(field);
      c.require(v != nullptr && v->is_number(),
                std::string("missing numeric 'sim.") + field + "'");
    }
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: validate_bench_json FILE [FILE...]\n";
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const JsonValue root = read_json(argv[i], &error);
    if (!error.empty()) {
      std::cerr << argv[i] << ": " << error << "\n";
      all_ok = false;
      continue;
    }
    const Check c = validate(root, argv[i]);
    if (c.ok) {
      const JsonValue* results = root.find("results");
      const JsonValue* findings = root.find("findings");
      const JsonValue* modules = root.find("modules");
      const JsonValue* rows = root.find("rows");
      std::cout << argv[i] << ": OK (";
      if (results != nullptr) {
        std::cout << results->size() << " results)\n";
      } else if (rows != nullptr) {
        std::cout << rows->size() << " trajectory rows)\n";
      } else if (findings != nullptr) {
        std::cout << findings->size() << " lint findings)\n";
      } else {
        std::cout << (modules != nullptr ? modules->size() : 0)
                  << " modules)\n";
      }
    } else {
      all_ok = false;
      std::cerr << argv[i] << ": INVALID\n";
      for (const std::string& p : c.problems) {
        std::cerr << "  - " << p << "\n";
      }
    }
  }
  return all_ok ? 0 : 1;
}
