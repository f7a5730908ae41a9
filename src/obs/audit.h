// Structured decision audit: one JSON object per brokered allocation.
//
// The broker fills an AuditRecord per decide() call — request, snapshot
// identity, serving epoch, gate verdict, chosen nodes with their costs,
// per-stage wall times — and appends it to an attached AuditLog.
// Records serialize to single-line JSON (JSONL when concatenated) and parse
// back for tooling and tests.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nlarm::obs {

struct AuditRecord {
  // Request.
  int nprocs = 0;
  int ppn = 0;
  double alpha = 0.0;
  double beta = 0.0;

  // Snapshot identity the decision was made on.
  std::uint64_t snapshot_version = 0;
  double snapshot_time = 0.0;
  int snapshot_nodes = 0;
  int usable_nodes = 0;
  std::uint64_t epoch = 0;  ///< published epoch served (0 = classic path)

  // Gate verdict.
  std::string action;  ///< "allocate" | "wait"
  std::string reason;
  double cluster_load_per_core = 0.0;
  int effective_capacity = 0;

  // Degradation verdict: "none" | "degraded-epoch" (served from an epoch
  // rewritten for staleness) | "last-good-fallback" (current epoch poisoned,
  // served from the last-good one) | "refused-stale" (even the last-good
  // epoch exceeded the hard age bound).
  std::string degradation = "none";
  int quarantined_nodes = 0;  ///< nodes quarantined in the serving epoch

  // Allocation outcome (empty/zero when action == "wait").
  std::string policy;
  std::vector<int> nodes;
  std::vector<std::string> hostnames;
  std::vector<int> procs_per_node;
  double compute_cost = 0.0;  ///< C_Gv of the winning candidate
  double network_cost = 0.0;  ///< N_Gv of the winning candidate
  double total_cost = 0.0;    ///< T_Gv of the winning candidate
  std::uint64_t candidates_generated = 0;

  // Per-stage wall times (seconds). Allocator stages are zero on wait.
  double gate_seconds = 0.0;
  double prepare_seconds = 0.0;
  double generate_seconds = 0.0;
  double select_seconds = 0.0;
  double total_seconds = 0.0;

  /// Single-line JSON object (no trailing newline).
  std::string to_json() const;

  /// Parses a record serialized by to_json(). Unknown fields are ignored
  /// (older records' prepared_cache_hit/aggregates_cache_hit flags among
  /// them); missing fields keep their defaults. Throws CheckError on
  /// malformed JSON.
  static AuditRecord from_json(const std::string& json);
};

/// In-memory collection of audit records with JSONL output. Thread-safe:
/// concurrent epoch decide() calls append from many threads, so the log
/// serializes internally and readers get a snapshot copy.
class AuditLog {
 public:
  void append(AuditRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
  }
  std::vector<AuditRecord> records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }
  std::string jsonl() const;

 private:
  mutable std::mutex mutex_;
  std::vector<AuditRecord> records_;
};

}  // namespace nlarm::obs
