// Tests for the observability layer: the JSON document type (dump/parse
// round trips), the event log serialization, the telemetry-struct
// serializers of run_report, and the file writer the benches use.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/blas.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "solver/dynamic_block.hpp"

namespace rsrpa::obs {
namespace {

// ----- Json value semantics and dump -----

TEST(Json, ScalarTypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json(-7L).as_int(), -7);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);  // int promotes
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_THROW((void)Json(1).as_string(), Error);
  EXPECT_THROW((void)Json("x").as_int(), Error);
}

TEST(Json, DumpCompactForms) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");
  Json obj = Json::object();
  obj["a"] = 1;
  obj["b"] = Json::array();
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":[]}");
}

TEST(Json, DoublesDumpAsValidJsonNumbers) {
  // A whole-valued double must keep a decimal marker so it parses back as
  // a double, and non-finite values must become null (JSON has no NaN).
  EXPECT_EQ(Json(1.0).dump(), "1.0");
  Json back = Json::parse(Json(0.1).dump());
  EXPECT_DOUBLE_EQ(back.as_double(), 0.1);
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj["z"] = 1;
  obj["a"] = 2;
  obj["m"] = 3;
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  obj["a"] = 9;  // overwrite keeps position
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, FindAndAt) {
  Json obj = Json::object();
  obj["x"] = 5;
  ASSERT_NE(obj.find("x"), nullptr);
  EXPECT_EQ(obj.find("x")->as_int(), 5);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_EQ(obj.at("x").as_int(), 5);
  EXPECT_THROW((void)obj.at("missing"), Error);
  EXPECT_EQ(Json(3).find("x"), nullptr);  // non-object: no match, no throw
}

// ----- Parse and round trip -----

TEST(Json, ParsesNestedDocument) {
  const Json j = Json::parse(
      R"({"name":"run","n":3,"ok":true,"x":null,)"
      R"("arr":[1,2.5,"s",[],{}],"nested":{"k":-7}})");
  EXPECT_EQ(j.at("name").as_string(), "run");
  EXPECT_EQ(j.at("n").as_int(), 3);
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_TRUE(j.at("x").is_null());
  ASSERT_EQ(j.at("arr").size(), 5u);
  EXPECT_DOUBLE_EQ(j.at("arr").as_array()[1].as_double(), 2.5);
  EXPECT_EQ(j.at("nested").at("k").as_int(), -7);
}

TEST(Json, RoundTripsThroughDumpAndParse) {
  Json j = Json::object();
  j["text"] = "tab\there \"quoted\" \\ backslash\nnewline";
  j["control"] = std::string("a\x01z");
  j["big"] = 123456789012345LL;
  j["neg"] = -2.5e-300;
  Json arr = Json::array();
  for (int i = 0; i < 5; ++i) arr.push_back(i * 1.1);
  j["arr"] = std::move(arr);

  for (int indent : {-1, 0, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back.dump(), j.dump()) << "indent=" << indent;
  }
}

TEST(Json, ParsesUnicodeEscapes) {
  const Json j = Json::parse(R"("aAé✓")");
  EXPECT_EQ(j.as_string(), "aA\xc3\xa9\xe2\x9c\x93");  // A, e-acute, checkmark
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":}"), Error);
  EXPECT_THROW(Json::parse("nul"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);     // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("{'a':1}"), Error);  // single quotes
}

TEST(Json, FileWriterRoundTrips) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "rsrpa_obs_test" / "nested";
  const fs::path path = dir / "report.json";
  fs::remove_all(dir.parent_path());

  Json j = Json::object();
  j["alpha"] = 1;
  j["beta"] = Json::array();
  j["beta"].push_back(2.5);
  write_json_file(path.string(), j);  // creates parent directories
  const Json back = read_json_file(path.string());
  EXPECT_EQ(back.dump(), j.dump());
  fs::remove_all(dir.parent_path());

  EXPECT_THROW(read_json_file("/nonexistent/nope.json"), Error);
}

// ----- EventLog -----

TEST(EventLog, EmitCountAndMerge) {
  EventLog log;
  EXPECT_TRUE(log.empty());
  log.emit(events::kSingleColumnFallback, "breakdown", {{"position", 3}});
  log.emit(events::kEigensolveCollapse, "", {{"omega", 0.02}});
  log.emit(events::kSingleColumnFallback, "again");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(events::kSingleColumnFallback), 2u);
  EXPECT_EQ(log.count(events::kTraceTermDomain), 0u);

  EventLog other;
  other.emit(events::kTraceTermDomain, "mu >= 1", {{"mu", 1.5}});
  log.merge(other);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.count(events::kTraceTermDomain), 1u);
}

TEST(EventLog, RoundTripsThroughJson) {
  EventLog log;
  log.emit(events::kSingleColumnFallback, "mu pivot 1e-17",
           {{"position", 4}, {"block_size", 8}});
  log.emit(events::kTraceTermDomain, "ln(1 - mu) undefined",
           {{"omega_index", 7}, {"mu", 1.25}});

  const Json j = to_json(log);
  const EventLog back = event_log_from_json(Json::parse(j.dump(2)));
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Event& a = log.events()[i];
    const Event& b = back.events()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.detail, b.detail);
    ASSERT_EQ(a.fields.size(), b.fields.size());
    for (std::size_t f = 0; f < a.fields.size(); ++f) {
      EXPECT_EQ(a.fields[f].first, b.fields[f].first);
      EXPECT_DOUBLE_EQ(a.fields[f].second, b.fields[f].second);
    }
  }
}

// ----- Telemetry-struct serializers -----

TEST(RunReport, KernelTimersSerialize) {
  KernelTimers t;
  t.add("nu_chi0", 1.5);
  t.add("matmult", 0.25);
  t.add("nu_chi0", 0.5);
  const Json j = to_json(t);
  EXPECT_DOUBLE_EQ(j.at("nu_chi0").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(j.at("matmult").as_double(), 0.25);
}

TEST(RunReport, SolveReportSerializesHistory) {
  solver::SolveReport rep;
  rep.iterations = 12;
  rep.relative_residual = 3e-11;
  rep.converged = true;
  rep.matvec_columns = 48;
  rep.history = {1.0, 0.1, 3e-11};
  const Json j = Json::parse(to_json(rep).dump());
  EXPECT_EQ(j.at("iterations").as_int(), 12);
  EXPECT_EQ(j.at("matvec_columns").as_int(), 48);
  EXPECT_TRUE(j.at("converged").as_bool());
  ASSERT_EQ(j.at("history").size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("history").as_array()[2].as_double(), 3e-11);
}

// The ISSUE's acceptance case: a dynamic-block run with a real recovery
// (the ladder deflating a rank-deficient block), its histogram, and its
// events, all surviving the writer -> parser round trip.
TEST(RunReport, DynamicBlockReportAndEventsRoundTripThroughWriter) {
  Rng rng(4);
  const std::size_t n = 30;
  la::Matrix<la::cplx> a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const la::cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += la::cplx{5.0, 1.0};

  la::Matrix<la::cplx> b(n, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < n; ++i)
      b(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (std::size_t i = 0; i < n; ++i) b(i, 3) = b(i, 2);  // force breakdown

  la::Matrix<la::cplx> y(n, 4);
  solver::DynamicBlockOptions opts;
  opts.enabled = false;
  opts.fixed_block = 4;
  EventLog elog;
  opts.events = &elog;
  const solver::BlockOpC op = [&a](const la::Matrix<la::cplx>& in,
                                   la::Matrix<la::cplx>& out) {
    la::gemm_nn(la::cplx{1}, a, in, la::cplx{0}, out);
  };
  const solver::DynamicBlockReport rep =
      solver::solve_dynamic_block(op, b, y, opts);
  // Full block deflates to halves, the duplicate pair deflates to singles.
  ASSERT_EQ(elog.count(events::kBlockDeflation), 2u);

  RunReport report("dynamic_block_roundtrip");
  report.set("solve", to_json(rep));
  report.set("events", to_json(elog));

  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "rsrpa_obs_test_report.json";
  report.write(path.string());
  const Json back = read_json_file(path.string());
  fs::remove(path);

  EXPECT_EQ(back.at("schema").as_string(), kRunReportSchema);
  EXPECT_EQ(back.at("name").as_string(), "dynamic_block_roundtrip");

  // The serialized histogram must agree with block_size_counts().
  const Json& hist = back.at("solve").at("block_size_counts");
  const auto counts = rep.block_size_counts();
  EXPECT_EQ(hist.as_object().size(), counts.size());
  for (const auto& [size, count] : counts)
    EXPECT_EQ(hist.at(std::to_string(size)).as_int(), count);
  EXPECT_EQ(back.at("solve").at("fallback_chunks").as_int(), 1);
  EXPECT_EQ(back.at("solve").at("total_matvec_columns").as_int(),
            rep.total_matvec_columns);
  EXPECT_EQ(back.at("solve").at("total_deflations").as_int(), 2);
  EXPECT_EQ(back.at("solve").at("total_restarts").as_int(), 0);
  EXPECT_EQ(back.at("solve").at("quarantined_columns").as_array().size(), 0u);

  // And the recovery events come back intact.
  const EventLog back_events = event_log_from_json(back.at("events"));
  ASSERT_EQ(back_events.count(events::kBlockDeflation), 2u);
  for (const Event& e : back_events.events()) {
    if (e.kind != events::kBlockDeflation) continue;
    EXPECT_EQ(e.fields[1].first, "block_size");
    EXPECT_DOUBLE_EQ(e.fields[1].second, 4.0);
    break;
  }
}

TEST(RunReport, OmegaRecordReportsDomainViolations) {
  rpa::OmegaRecord rec;
  rec.omega = 0.02;
  rec.weight = 0.053;
  rec.e_term = -0.5;
  rec.converged = false;
  rec.invalid_terms = 2;
  rec.worst_mu = 1.7;
  rec.eigenvalues = {-3.0, -1.0};
  const Json j = Json::parse(to_json(rec).dump());
  EXPECT_EQ(j.at("invalid_terms").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("worst_mu").as_double(), 1.7);
  EXPECT_FALSE(j.at("converged").as_bool());

  // A clean record omits the violation fields entirely.
  rpa::OmegaRecord clean;
  clean.converged = true;
  const Json cj = to_json(clean);
  EXPECT_EQ(cj.find("invalid_terms"), nullptr);
  EXPECT_EQ(cj.find("worst_mu"), nullptr);
}

TEST(RunReport, ElidedOmegaRecordRoundTrips) {
  // Elision telemetry must survive to_json -> omega_record_from_json
  // exactly: the checkpoint payload rides on this inverse (resumed runs
  // rebuild their per-point history from it bitwise).
  rpa::OmegaRecord rec;
  rec.omega = 0.492558;
  rec.weight = 0.25;
  rec.e_term = -0.03125;
  rec.converged = true;
  rec.elided = true;
  rec.projection_residual = 0.0531868;
  rec.eigenvalues = {-0.5, -0.25};
  const Json j = Json::parse(to_json(rec).dump());
  EXPECT_TRUE(j.at("elided").as_bool());
  EXPECT_FALSE(j.at("fallback").as_bool());
  EXPECT_EQ(j.at("projection_residual").as_double(), 0.0531868);

  const rpa::OmegaRecord back = omega_record_from_json(j);
  EXPECT_TRUE(back.elided);
  EXPECT_FALSE(back.fallback);
  EXPECT_EQ(back.projection_residual, rec.projection_residual);
  EXPECT_EQ(back.e_term, rec.e_term);
  EXPECT_EQ(back.eigenvalues, rec.eigenvalues);

  // A fallback record carries the residual that tripped the guard.
  rpa::OmegaRecord fb;
  fb.fallback = true;
  fb.projection_residual = 0.0823478;
  const rpa::OmegaRecord fback =
      omega_record_from_json(Json::parse(to_json(fb).dump()));
  EXPECT_FALSE(fback.elided);
  EXPECT_TRUE(fback.fallback);
  EXPECT_EQ(fback.projection_residual, fb.projection_residual);

  // A plain record omits the elision fields entirely — and a pre-elision
  // report (no such keys) parses with the defaults.
  rpa::OmegaRecord plain;
  const Json pj = to_json(plain);
  EXPECT_EQ(pj.find("elided"), nullptr);
  EXPECT_EQ(pj.find("projection_residual"), nullptr);
  const rpa::OmegaRecord pback = omega_record_from_json(pj);
  EXPECT_FALSE(pback.elided);
  EXPECT_FALSE(pback.fallback);
  EXPECT_EQ(pback.projection_residual, 0.0);
}

TEST(RunReport, ProbeStatsOmegaRecordRoundTrips) {
  // An SLQ point: an OmegaRecord with probe statistics and no eigenvalues.
  rpa::OmegaRecord rec;
  rec.omega = 2.03022;
  rec.weight = 0.375;
  rec.e_term = -0.0625;
  rec.converged = true;
  rec.seconds = 1.5;
  rpa::ProbeStats& p = rec.probes.emplace();
  p.n_probes = 12;
  p.lanczos_steps = 6;
  p.probe_stddev = 0.015625;
  p.ci_halfwidth = 0.00884;
  p.rel_ci = 0.14144;
  p.matvec_columns = 72;
  const Json j = Json::parse(to_json(rec).dump());
  EXPECT_EQ(j.at("ci_halfwidth").as_double(), p.ci_halfwidth);
  EXPECT_EQ(j.at("rel_ci").as_double(), p.rel_ci);

  const rpa::OmegaRecord back = omega_record_from_json(j);
  ASSERT_TRUE(back.probes.has_value());
  EXPECT_EQ(back.omega, rec.omega);
  EXPECT_EQ(back.weight, rec.weight);
  EXPECT_EQ(back.e_term, rec.e_term);
  EXPECT_EQ(back.probes->n_probes, p.n_probes);
  EXPECT_EQ(back.probes->lanczos_steps, p.lanczos_steps);
  EXPECT_EQ(back.probes->probe_stddev, p.probe_stddev);
  EXPECT_EQ(back.probes->ci_halfwidth, p.ci_halfwidth);
  EXPECT_EQ(back.probes->rel_ci, p.rel_ci);
  EXPECT_EQ(back.probes->matvec_columns, p.matvec_columns);
  EXPECT_EQ(back.seconds, rec.seconds);

  // The probe group is all or nothing: a row missing the two CI keys is
  // refused rather than defaulted.
  Json old = Json::object();
  for (const auto& [key, value] : j.as_object())
    if (key != "ci_halfwidth" && key != "rel_ci") old[key] = value;
  EXPECT_THROW(omega_record_from_json(old), Error);

  // A subspace record carries no probe group.
  EXPECT_EQ(to_json(rpa::OmegaRecord{}).find("n_probes"), nullptr);
  EXPECT_FALSE(omega_record_from_json(to_json(rpa::OmegaRecord{}))
                   .probes.has_value());
}

TEST(RunReport, RpaResultSerializesAllSections) {
  rpa::RpaResult res;
  res.e_rpa = -1.25;
  res.e_rpa_per_atom = -0.15625;
  res.converged = true;
  res.total_seconds = 4.2;
  rpa::OmegaRecord rec;
  rec.omega = 49.36;
  rec.filter_iterations = 3;
  rec.eigenvalues = {-0.5};
  res.per_omega.push_back(rec);
  res.timers.add(rpa::kernels::kNuChi0, 3.0);
  res.stern.matvec_columns = 1234;
  res.events.emit(events::kEigensolveCollapse, "", {{"omega", 49.36}});

  const Json j = Json::parse(to_json(res).dump(2));
  EXPECT_DOUBLE_EQ(j.at("e_rpa").as_double(), -1.25);
  ASSERT_EQ(j.at("per_omega").size(), 1u);
  EXPECT_EQ(j.at("per_omega").as_array()[0].at("filter_iterations").as_int(),
            3);
  EXPECT_EQ(j.at("sternheimer").at("matvec_columns").as_int(), 1234);
  EXPECT_DOUBLE_EQ(j.at("timers").at(rpa::kernels::kNuChi0).as_double(), 3.0);
  EXPECT_EQ(j.at("events").size(), 1u);
}

}  // namespace
}  // namespace rsrpa::obs
