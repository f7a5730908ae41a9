// AuditRecord JSON round-trip and AuditLog JSONL output.
#include <gtest/gtest.h>

#include <string>

#include "obs/audit.h"
#include "util/check.h"

namespace nlarm::obs {
namespace {

AuditRecord full_record() {
  AuditRecord r;
  r.nprocs = 32;
  r.ppn = 4;
  r.alpha = 0.3;
  r.beta = 0.7;
  r.snapshot_version = 12345;
  r.snapshot_time = 1500.5;
  r.snapshot_nodes = 60;
  r.usable_nodes = 58;
  r.action = "allocate";
  r.reason = "cluster healthy: load/core 0.25 \"quoted\" \\ under limit";
  r.cluster_load_per_core = 0.25;
  r.effective_capacity = 480;
  r.policy = "network-load-aware";
  r.nodes = {3, 7, 11};
  r.hostnames = {"node03", "node07", "node11"};
  r.procs_per_node = {12, 12, 8};
  r.compute_cost = 1.5;
  r.network_cost = 2.25;
  r.total_cost = 2.0;
  r.candidates_generated = 58;
  r.gate_seconds = 0.0001220703125;
  r.prepare_seconds = 0.000244140625;
  r.generate_seconds = 0.00048828125;
  r.select_seconds = 0.0009765625;
  r.total_seconds = 0.001953125;
  return r;
}

// full_record() as the earlier record format serialized it: that format
// also carried the prepared_cache_hit and aggregates_cache_hit memo flags.
constexpr const char* kEarlierFormatRecord =
    R"({"nprocs":32,"ppn":4,"alpha":0.3,"beta":0.7,"snapshot_version":12345,)"
    R"("snapshot_time":1500.5,"snapshot_nodes":60,"usable_nodes":58,)"
    R"("epoch":0,"action":"allocate","reason":"cluster healthy: load/core )"
    R"(0.25 \"quoted\" \\ under limit","cluster_load_per_core":0.25,)"
    R"("effective_capacity":480,"aggregates_cache_hit":true,)"
    R"("degradation":"none","quarantined_nodes":0,)"
    R"("policy":"network-load-aware","nodes":[3,7,11],)"
    R"("hostnames":["node03","node07","node11"],"procs_per_node":[12,12,8],)"
    R"("compute_cost":1.5,"network_cost":2.25,"total_cost":2,)"
    R"("prepared_cache_hit":true,"candidates_generated":58,)"
    R"("stages":{"gate":0.0001220703125,"prepare":0.000244140625,)"
    R"("generate":0.00048828125,"select":0.0009765625,"total":0.001953125}})";

TEST(AuditRecord, RoundTripPreservesEveryField) {
  const AuditRecord r = full_record();
  for (const std::string& json : {r.to_json(),
                                  std::string(kEarlierFormatRecord)}) {
    SCOPED_TRACE(json);
    const AuditRecord back = AuditRecord::from_json(json);

    EXPECT_EQ(back.nprocs, r.nprocs);
    EXPECT_EQ(back.ppn, r.ppn);
    EXPECT_DOUBLE_EQ(back.alpha, r.alpha);
    EXPECT_DOUBLE_EQ(back.beta, r.beta);
    EXPECT_EQ(back.snapshot_version, r.snapshot_version);
    EXPECT_DOUBLE_EQ(back.snapshot_time, r.snapshot_time);
    EXPECT_EQ(back.snapshot_nodes, r.snapshot_nodes);
    EXPECT_EQ(back.usable_nodes, r.usable_nodes);
    EXPECT_EQ(back.epoch, r.epoch);
    EXPECT_EQ(back.action, r.action);
    EXPECT_EQ(back.reason, r.reason);  // quotes and backslash survive
    EXPECT_DOUBLE_EQ(back.cluster_load_per_core, r.cluster_load_per_core);
    EXPECT_EQ(back.effective_capacity, r.effective_capacity);
    EXPECT_EQ(back.degradation, r.degradation);
    EXPECT_EQ(back.quarantined_nodes, r.quarantined_nodes);
    EXPECT_EQ(back.policy, r.policy);
    EXPECT_EQ(back.nodes, r.nodes);
    EXPECT_EQ(back.hostnames, r.hostnames);
    EXPECT_EQ(back.procs_per_node, r.procs_per_node);
    EXPECT_DOUBLE_EQ(back.compute_cost, r.compute_cost);
    EXPECT_DOUBLE_EQ(back.network_cost, r.network_cost);
    EXPECT_DOUBLE_EQ(back.total_cost, r.total_cost);
    EXPECT_EQ(back.candidates_generated, r.candidates_generated);
    EXPECT_DOUBLE_EQ(back.gate_seconds, r.gate_seconds);
    EXPECT_DOUBLE_EQ(back.prepare_seconds, r.prepare_seconds);
    EXPECT_DOUBLE_EQ(back.generate_seconds, r.generate_seconds);
    EXPECT_DOUBLE_EQ(back.select_seconds, r.select_seconds);
    EXPECT_DOUBLE_EQ(back.total_seconds, r.total_seconds);
  }
}

TEST(AuditRecord, ToJsonIsSingleLine) {
  const std::string json = full_record().to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(AuditRecord, DefaultRecordRoundTrips) {
  const AuditRecord back = AuditRecord::from_json(AuditRecord{}.to_json());
  EXPECT_EQ(back.nprocs, 0);
  EXPECT_TRUE(back.action.empty());
  EXPECT_TRUE(back.nodes.empty());
}

TEST(AuditRecord, MalformedJsonThrows) {
  EXPECT_THROW(AuditRecord::from_json("{"), util::CheckError);
  EXPECT_THROW(AuditRecord::from_json("not json"), util::CheckError);
  EXPECT_THROW(AuditRecord::from_json("{\"nprocs\": }"), util::CheckError);
}

TEST(AuditLog, JsonlOneLinePerRecord) {
  AuditLog log;
  log.append(full_record());
  AuditRecord wait;
  wait.action = "wait";
  wait.reason = "cluster load 0.9/core exceeds 0.5";
  log.append(wait);

  EXPECT_EQ(log.records().size(), 2u);
  const std::string jsonl = log.jsonl();
  int lines = 0;
  for (char ch : jsonl) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2);

  // Each line parses back on its own.
  const auto split = jsonl.find('\n');
  const AuditRecord first = AuditRecord::from_json(jsonl.substr(0, split));
  const AuditRecord second = AuditRecord::from_json(
      jsonl.substr(split + 1, jsonl.size() - split - 2));
  EXPECT_EQ(first.action, "allocate");
  EXPECT_EQ(second.action, "wait");
}

}  // namespace
}  // namespace nlarm::obs
