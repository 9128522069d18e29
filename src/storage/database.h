// Catalog of named relations plus the shared symbol table and access stats.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/access_stats.h"
#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace mcm {

/// \brief An in-memory database: named relations + interning + cost counters.
///
/// All relations created through a Database share its AccessStats, so a
/// single counter captures the total tuple-retrieval cost of evaluating a
/// query — the unit used throughout the paper's complexity tables.
///
/// Thread safety: a Database is single-owner — evaluation mutates relations,
/// counts stats, and builds lazy indexes, none of which is synchronized.
/// Even the const read paths are not shareable across threads: Contains() /
/// Get() / Scan() / Probe() count into the shared AccessStats through a
/// const method, and Probe() builds its index lazily on first use
/// (mutation hiding behind const — see the concurrency audit in DESIGN.md
/// 5e). The two sanctioned cross-thread paths are the SymbolTable (which is
/// internally synchronized and may be shared via the external-table
/// constructor) and SnapshotInto(), which reads only truly-const,
/// uninstrumented state and is safe from many threads at once as long as
/// nobody mutates the source.
class MCM_OWNER(Relation) Database {
 public:
  Database() = default;
  /// A database that interns through `shared_symbols` (not owned; must
  /// outlive this database) instead of its own table. Used by the query
  /// service: per-request working databases share the base EDB's table so
  /// snapshotted Values resolve consistently and concurrently.
  explicit Database(SymbolTable* shared_symbols) : symbols_(shared_symbols) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Create a relation; error if the name is taken.
  Result<Relation*> CreateRelation(const std::string& name, uint32_t arity);

  /// Install a zero-copy read-only borrow of `base` (Relation::Borrow)
  /// under `name`, instrumented by this database's stats; error if the
  /// name is taken. This is EdbView's per-relation attach step — the
  /// zero-copy replacement for SnapshotInto's per-tuple copy.
  [[nodiscard]] Result<Relation*> AttachBorrowed(const std::string& name,
                                   std::shared_ptr<const Relation> base);

  /// Fetch an existing relation or create it.
  Relation* GetOrCreateRelation(const std::string& name, uint32_t arity)
      MCM_LIFETIME_BOUND;

  /// nullptr if absent.
  Relation* Find(const std::string& name) MCM_LIFETIME_BOUND;
  const Relation* Find(const std::string& name) const MCM_LIFETIME_BOUND;

  /// Error Status if absent.
  Result<Relation*> Get(const std::string& name);

  bool Drop(const std::string& name);

  std::vector<std::string> RelationNames() const;

  /// The interning table. Annotated lifetimebound even though a *shared*
  /// table outlives the database: the discipline is that references
  /// obtained through a Database do not outlive it — code that needs the
  /// table past the working database's life takes it from its true owner
  /// (the VersionedStore / base Database) instead.
  SymbolTable& symbols() MCM_LIFETIME_BOUND { return *symbols_; }
  const SymbolTable& symbols() const MCM_LIFETIME_BOUND { return *symbols_; }

  AccessStats& stats() MCM_LIFETIME_BOUND { return stats_; }
  const AccessStats& stats() const MCM_LIFETIME_BOUND { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Total number of tuples across all relations.
  size_t TotalTuples() const;

  /// Bytes held by the relations' storage: the sum of
  /// Relation::ApproxBytes, which reads the real capacities of each tuple
  /// arena, dedup table and index (borrowed relations are charged for the
  /// base storage they read). Used by the execution governor's memory
  /// budget; O(#relations + #indexes), so cheap enough to poll per round.
  size_t ApproxBytes() const;

  /// Copy every relation's tuples into `dst` (relations are created there
  /// as needed; existing same-name relations receive the tuples, erroring
  /// on an arity mismatch). This is the query service's per-request
  /// isolation step, and the one relation read path that is safe to run
  /// from many threads against the same source at once: it touches only
  /// name/arity and the uninstrumented tuple storage, so neither the
  /// source's AccessStats nor its lazy indexes are written. The symbol
  /// table is NOT copied — share it via the external-table constructor so
  /// the snapshotted Values keep resolving.
  ///
  /// Concurrent-hot-swap audit (PR 5): this safety claim requires a frozen
  /// source. Snapshotting a Database while another thread mutates its
  /// relations is a data race (Insert appends to the vector SnapshotInto
  /// iterates). The versioned store therefore never mutates in place —
  /// commits build new immutable Relation objects (copy-on-write) and swap
  /// the tip pointer, so EdbVersion::SnapshotInto on a pinned version is
  /// race-free by construction no matter how many commits land concurrently.
  [[nodiscard]] Status SnapshotInto(Database* dst) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
  SymbolTable own_symbols_;
  /// Points at own_symbols_ unless the sharing constructor redirected it.
  SymbolTable* symbols_ = &own_symbols_;
  AccessStats stats_;
};

}  // namespace mcm
