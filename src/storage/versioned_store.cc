#include "storage/versioned_store.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <unordered_set>
#include <utility>

#include "storage/io.h"
#include "storage/tuple.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace mcm {

namespace {

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// Fields and relation names travel tab-separated, one op per line, so the
/// three structural characters are backslash-escaped.
std::string EscapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

bool UnescapeField(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out->push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '\\':
        out->push_back('\\');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'n':
        out->push_back('\n');
        break;
      default:
        return false;
    }
  }
  return true;
}

const char* OpKeyword(UpdateOpKind kind) {
  switch (kind) {
    case UpdateOpKind::kInsert:
      return "insert";
    case UpdateOpKind::kDelete:
      return "delete";
    case UpdateOpKind::kCreateRelation:
      return "create";
    case UpdateOpKind::kDropRelation:
      return "drop";
  }
  return "?";
}

size_t VersionApproxBytes(
    const std::map<std::string, std::shared_ptr<const Relation>>& relations) {
  // Mirrors Database::ApproxBytes so the service's memory budget treats
  // snapshots from either source identically.
  size_t total = 0;
  for (const auto& [name, rel] : relations) {
    (void)name;
    total += rel->ApproxBytes();
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// EdbVersion

const Relation* EdbVersion::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const Relation> EdbVersion::Share(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second;
}

std::vector<std::string> EdbVersion::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    (void)rel;
    names.push_back(name);
  }
  return names;
}

size_t EdbVersion::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    (void)name;
    total += rel->size();
  }
  return total;
}

Status EdbVersion::SnapshotInto(Database* dst) const {
  for (const auto& [name, rel] : relations_) {
    Relation* copy = dst->Find(name);
    if (copy == nullptr) {
      copy = dst->GetOrCreateRelation(name, rel->arity());
    } else if (copy->arity() != rel->arity()) {
      return Status::InvalidArgument(
          "snapshot arity mismatch for relation '" + name + "'");
    }
    for (const Tuple& t : rel->TuplesUnchecked()) copy->Insert(t);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VersionedStore

VersionedStore::VersionedStore(Options options)
    : options_(std::move(options)) {
  util::MutexLock commit_lock(commit_mu_);
  util::MutexLock tip_lock(tip_mu_);
  tip_ = std::shared_ptr<const EdbVersion>(new EdbVersion());
}

std::shared_ptr<const EdbVersion> VersionedStore::Pin() const {
  util::MutexLock lock(tip_mu_);
  return tip_;
}

void VersionedStore::SetTip(std::shared_ptr<const EdbVersion> v) {
  util::MutexLock lock(tip_mu_);
  tip_ = std::move(v);
}

Status VersionedStore::ValidateAndBind(const UpdateBatch& batch,
                                       const EdbVersion& base,
                                       std::vector<BoundOp>* bound) {
  if (batch.empty()) {
    return Status::InvalidArgument("empty update batch");
  }
  // Arity of every relation live at this point of the batch: base overlaid
  // with the creates/drops seen so far. nullopt = dropped.
  std::map<std::string, std::optional<uint32_t>> overlay;
  auto live_arity = [&](const std::string& name) -> std::optional<uint32_t> {
    auto it = overlay.find(name);
    if (it != overlay.end()) return it->second;
    const Relation* rel = base.Find(name);
    if (rel == nullptr) return std::nullopt;
    return rel->arity();
  };

  bound->clear();
  bound->reserve(batch.ops.size());
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const UpdateOp& op = batch.ops[i];
    BoundOp b;
    b.kind = op.kind;
    b.relation = op.relation;
    if (op.relation.empty()) {
      return Status::InvalidArgument(
          StringPrintf("op #%zu: empty relation name", i));
    }
    switch (op.kind) {
      case UpdateOpKind::kCreateRelation:
        if (op.arity == 0 || op.arity > kMaxTupleArity) {
          return Status::InvalidArgument(StringPrintf(
              "op #%zu: relation '%s' arity %u out of range [1, %u]", i,
              op.relation.c_str(), op.arity, kMaxTupleArity));
        }
        if (live_arity(op.relation).has_value()) {
          return Status::AlreadyExists(StringPrintf(
              "op #%zu: relation '%s' already exists", i,
              op.relation.c_str()));
        }
        overlay[op.relation] = op.arity;
        b.arity = op.arity;
        break;
      case UpdateOpKind::kDropRelation:
        if (!live_arity(op.relation).has_value()) {
          return Status::NotFound(StringPrintf(
              "op #%zu: relation '%s' not found", i, op.relation.c_str()));
        }
        overlay[op.relation] = std::nullopt;
        break;
      case UpdateOpKind::kInsert:
      case UpdateOpKind::kDelete: {
        std::optional<uint32_t> arity = live_arity(op.relation);
        if (!arity.has_value()) {
          return Status::NotFound(StringPrintf(
              "op #%zu: relation '%s' not found (create it first)", i,
              op.relation.c_str()));
        }
        if (op.fields.size() != *arity) {
          return Status::InvalidArgument(StringPrintf(
              "op #%zu: relation '%s' expects %u fields, got %zu", i,
              op.relation.c_str(), *arity, op.fields.size()));
        }
        b.arity = *arity;
        b.tuple = Tuple(*arity);
        for (uint32_t c = 0; c < *arity; ++c) {
          int64_t v;
          // Interning is append-only, so binding a batch that is later
          // rejected leaves at most unused symbols behind — harmless.
          b.tuple[c] = ParseInt64(op.fields[c], &v)
                           ? v
                           : symbols_.Intern(op.fields[c]);
        }
        break;
      }
    }
    bound->push_back(std::move(b));
  }
  return Status::OK();
}

std::shared_ptr<const EdbVersion> VersionedStore::BuildVersion(
    const EdbVersion& base, const std::vector<BoundOp>& bound,
    uint64_t epoch) const {
  auto v = std::shared_ptr<EdbVersion>(new EdbVersion());
  v->epoch_ = epoch;
  v->relations_ = base.relations_;  // COW: untouched relations are shared

  // Working set per touched relation: insertion order plus live membership,
  // materialized from the base relation on first touch.
  struct Work {
    uint32_t arity = 0;
    std::vector<Tuple> order;
    std::unordered_set<Tuple, TupleHash> live;
  };
  std::map<std::string, Work> touched;
  auto materialize = [&](const std::string& name) -> Work& {
    auto it = touched.find(name);
    if (it != touched.end()) return it->second;
    Work w;
    const auto rel = v->relations_.find(name)->second;
    w.arity = rel->arity();
    w.order.reserve(rel->size());
    for (const Tuple& t : rel->TuplesUnchecked()) {
      w.order.push_back(t);
      w.live.insert(t);
    }
    return touched.emplace(name, std::move(w)).first->second;
  };

  for (const BoundOp& op : bound) {
    switch (op.kind) {
      case UpdateOpKind::kCreateRelation: {
        Work fresh;
        fresh.arity = op.arity;
        touched[op.relation] = std::move(fresh);
        v->relations_.erase(op.relation);
        break;
      }
      case UpdateOpKind::kDropRelation:
        touched.erase(op.relation);
        v->relations_.erase(op.relation);
        break;
      case UpdateOpKind::kInsert: {
        Work& w = materialize(op.relation);
        if (w.live.insert(op.tuple).second) w.order.push_back(op.tuple);
        break;
      }
      case UpdateOpKind::kDelete: {
        Work& w = materialize(op.relation);
        w.live.erase(op.tuple);
        break;
      }
    }
  }

  for (auto& [name, w] : touched) {
    auto rel = std::make_shared<Relation>(name, w.arity, nullptr);
    for (const Tuple& t : w.order) {
      if (w.live.count(t) > 0) rel->Insert(t);
    }
    v->relations_[name] = std::move(rel);
  }
  v->approx_bytes_ = VersionApproxBytes(v->relations_);
  return v;
}

std::string VersionedStore::SerializeBatch(uint64_t seq,
                                           const UpdateBatch& batch) {
  std::string out = StringPrintf("seq\t%llu\n",
                                 static_cast<unsigned long long>(seq));
  for (const UpdateOp& op : batch.ops) {
    out += OpKeyword(op.kind);
    out.push_back('\t');
    out += EscapeField(op.relation);
    if (op.kind == UpdateOpKind::kCreateRelation) {
      out += StringPrintf("\t%u", op.arity);
    } else if (op.kind != UpdateOpKind::kDropRelation) {
      for (const std::string& f : op.fields) {
        out.push_back('\t');
        out += EscapeField(f);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status VersionedStore::ParseBatchPayload(const std::string& payload,
                                         uint64_t* seq, UpdateBatch* batch) {
  batch->ops.clear();
  std::vector<std::string> lines = Split(payload, '\n');
  // Split preserves the empty field after the trailing '\n'.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::DataLoss("wal batch: empty payload");

  std::vector<std::string> head = Split(lines[0], '\t');
  if (head.size() != 2 || head[0] != "seq" || !ParseUint64(head[1], seq)) {
    return Status::DataLoss("wal batch: bad sequence line '" + lines[0] +
                            "'");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> parts = Split(lines[i], '\t');
    if (parts.size() < 2) {
      return Status::DataLoss("wal batch: bad op line '" + lines[i] + "'");
    }
    UpdateOp op;
    std::string keyword = parts[0];
    if (!UnescapeField(parts[1], &op.relation)) {
      return Status::DataLoss("wal batch: bad relation escape");
    }
    if (keyword == "create") {
      uint64_t arity;
      if (parts.size() != 3 || !ParseUint64(parts[2], &arity)) {
        return Status::DataLoss("wal batch: bad create line");
      }
      op.kind = UpdateOpKind::kCreateRelation;
      op.arity = static_cast<uint32_t>(arity);
    } else if (keyword == "drop") {
      if (parts.size() != 2) return Status::DataLoss("wal batch: bad drop");
      op.kind = UpdateOpKind::kDropRelation;
    } else if (keyword == "insert" || keyword == "delete") {
      op.kind = keyword == "insert" ? UpdateOpKind::kInsert
                                    : UpdateOpKind::kDelete;
      for (size_t f = 2; f < parts.size(); ++f) {
        std::string field;
        if (!UnescapeField(parts[f], &field)) {
          return Status::DataLoss("wal batch: bad field escape");
        }
        op.fields.push_back(std::move(field));
      }
    } else {
      return Status::DataLoss("wal batch: unknown op '" + keyword + "'");
    }
    batch->ops.push_back(std::move(op));
  }
  return Status::OK();
}

Result<uint64_t> VersionedStore::Commit(const UpdateBatch& batch) {
  util::MutexLock commit_lock(commit_mu_);
  if (durable() && wal_ == nullptr) {
    return Status::Internal(
        "VersionedStore::Recover() must run before Commit on a durable "
        "store");
  }
  std::shared_ptr<const EdbVersion> base = Pin();
  std::vector<BoundOp> bound;
  MCM_RETURN_NOT_OK(ValidateAndBind(batch, *base, &bound));

  uint64_t epoch = base->epoch() + 1;
  if (durable()) {
    // Durability point: the tip only moves once the record is on disk.
    MCM_RETURN_NOT_OK(wal_->AppendRecord(SerializeBatch(epoch, batch)));
  }
  SetTip(BuildVersion(*base, bound, epoch));
  return epoch;
}

std::string VersionedStore::SerializeCheckpoint(const EdbVersion& tip) const {
  std::string out = StringPrintf(
      "mcmckpt\t1\nepoch\t%llu\n",
      static_cast<unsigned long long>(tip.epoch()));
  // Snapshot the interning table up to its current size: every id a stored
  // Value can reference is below it, and replayed ids line up because
  // recovery re-interns in the same order.
  size_t symbol_count = symbols_.size();
  out += StringPrintf("symbols\t%zu\n", symbol_count);
  for (size_t i = 0; i < symbol_count; ++i) {
    out += EscapeField(symbols_.Resolve(static_cast<Value>(i)));
    out.push_back('\n');
  }
  for (const auto& [name, rel] : tip.relations_) {
    out += StringPrintf("relation\t%s\t%u\t%zu\n", EscapeField(name).c_str(),
                        rel->arity(), rel->size());
    for (const Tuple& t : rel->TuplesUnchecked()) {
      for (uint32_t c = 0; c < t.arity(); ++c) {
        if (c > 0) out.push_back('\t');
        out += std::to_string(t[c]);
      }
      out.push_back('\n');
    }
  }
  out += StringPrintf("end\t%u\n", util::Crc32(out));
  return out;
}

Result<std::shared_ptr<const EdbVersion>> VersionedStore::LoadCheckpoint(
    const std::string& content) {
  auto corrupt = [](const std::string& why) {
    return Status::DataLoss("checkpoint corrupt: " + why);
  };
  std::vector<std::string> lines = Split(content, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() < 4) return corrupt("too short");

  // The trailing "end <crc>" line covers every byte before it.
  std::vector<std::string> end = Split(lines.back(), '\t');
  uint64_t crc;
  if (end.size() != 2 || end[0] != "end" || !ParseUint64(end[1], &crc)) {
    return corrupt("missing end marker");
  }
  size_t body_bytes = content.rfind("end\t");
  if (body_bytes == std::string::npos ||
      util::Crc32(std::string_view(content).substr(0, body_bytes)) != crc) {
    return corrupt("checksum mismatch");
  }

  size_t i = 0;
  if (lines[i++] != "mcmckpt\t1") return corrupt("bad magic");
  std::vector<std::string> epoch_line = Split(lines[i++], '\t');
  uint64_t epoch;
  if (epoch_line.size() != 2 || epoch_line[0] != "epoch" ||
      !ParseUint64(epoch_line[1], &epoch)) {
    return corrupt("bad epoch line");
  }
  std::vector<std::string> sym_line = Split(lines[i++], '\t');
  uint64_t symbol_count;
  if (sym_line.size() != 2 || sym_line[0] != "symbols" ||
      !ParseUint64(sym_line[1], &symbol_count)) {
    return corrupt("bad symbols line");
  }
  if (lines.size() - i < symbol_count) return corrupt("symbol list torn");
  for (uint64_t s = 0; s < symbol_count; ++s) {
    std::string sym;
    if (!UnescapeField(lines[i++], &sym)) return corrupt("bad symbol escape");
    if (symbols_.Intern(sym) != static_cast<Value>(s)) {
      return corrupt("duplicate symbol (id mismatch on re-intern)");
    }
  }

  auto v = std::shared_ptr<EdbVersion>(new EdbVersion());
  v->epoch_ = epoch;
  while (i < lines.size() - 1) {  // everything before the end line
    std::vector<std::string> rel_line = Split(lines[i++], '\t');
    uint64_t arity, count;
    std::string name;
    if (rel_line.size() != 4 || rel_line[0] != "relation" ||
        !UnescapeField(rel_line[1], &name) ||
        !ParseUint64(rel_line[2], &arity) ||
        !ParseUint64(rel_line[3], &count) || arity == 0 ||
        arity > kMaxTupleArity) {
      return corrupt("bad relation header");
    }
    if (lines.size() - 1 - i < count) return corrupt("tuple list torn");
    auto rel = std::make_shared<Relation>(
        name, static_cast<uint32_t>(arity), nullptr);
    for (uint64_t t = 0; t < count; ++t) {
      std::vector<std::string> vals = Split(lines[i++], '\t');
      if (vals.size() != arity) return corrupt("bad tuple width");
      Tuple tuple(static_cast<uint32_t>(arity));
      for (uint32_t c = 0; c < arity; ++c) {
        int64_t value;
        if (!ParseInt64(vals[c], &value)) return corrupt("bad tuple value");
        tuple[c] = value;
      }
      rel->Insert(tuple);
    }
    if (v->relations_.count(name) > 0) return corrupt("duplicate relation");
    v->relations_[name] = std::move(rel);
  }
  v->approx_bytes_ = VersionApproxBytes(v->relations_);
  return std::shared_ptr<const EdbVersion>(std::move(v));
}

Status VersionedStore::Checkpoint() {
  util::MutexLock commit_lock(commit_mu_);
  if (!durable()) {
    return Status::InvalidArgument(
        "in-memory store (no Options::dir) has nothing to checkpoint");
  }
  if (wal_ == nullptr) {
    return Status::Internal("Recover() must run before Checkpoint()");
  }
  std::shared_ptr<const EdbVersion> tip = Pin();
  MCM_FAULT_POINT("store/checkpoint");
  MCM_RETURN_NOT_OK(
      WriteFileAtomic(CheckpointPath(), SerializeCheckpoint(*tip)));

  // Retain the outgoing segment as wal.prev.log so a replication shipper
  // can serve record-based catch-up to a follower at most one rotation
  // behind. A *copy*, not a rename: recovery never reads the retained
  // segment, so a failure here cannot change recovery semantics — it only
  // downgrades a lagging follower from record catch-up to a snapshot
  // reseed, which is why the status is advisory.
  {
    std::string old_wal;
    Status retain = ReadFileToString(WalPath(), &old_wal);
    if (retain.ok()) retain = WriteFileAtomic(WalPrevPath(), old_wal);
    (void)retain;
  }

  // Rotate the log. On failure the previous log stays open and keeps
  // absorbing commits; replay filters records at or below the checkpoint
  // epoch, so both outcomes recover consistently.
  auto rotated = WalWriter::Create(WalPath(), tip->epoch());
  if (!rotated.ok()) {
    return Status(rotated.status().code(),
                  "checkpoint written but wal rotation failed: " +
                      rotated.status().message());
  }
  wal_ = std::move(*rotated);
  return Status::OK();
}

Status VersionedStore::Recover() {
  util::MutexLock commit_lock(commit_mu_);
  if (recovered_) {
    return Status::Internal("Recover() may only be called once");
  }
  recovered_ = true;
  if (!durable()) return Status::OK();

  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("cannot create store dir '" + options_.dir +
                            "': " + ec.message());
  }

  // 1. Base state: the last durable checkpoint, or empty at epoch 0.
  Status overall = Status::OK();
  std::shared_ptr<const EdbVersion> cur(new EdbVersion());
  std::string ckpt_bytes;
  Status ckpt_read = ReadFileToString(CheckpointPath(), &ckpt_bytes);
  if (ckpt_read.ok()) {
    auto loaded = LoadCheckpoint(ckpt_bytes);
    if (loaded.ok()) {
      cur = *loaded;
    } else {
      overall = loaded.status();
    }
  } else if (!ckpt_read.IsNotFound()) {
    return ckpt_read;
  }

  // 2. Replay the WAL past the base epoch, stopping at the first torn,
  //    corrupt, or out-of-sequence record.
  WalReplayResult replay = ReplayWal(WalPath());
  uint64_t append_at = replay.valid_bytes;
  bool log_unusable = false;
  if (replay.status.IsNotFound()) {
    log_unusable = true;  // fresh store: start a new log at the base epoch
  } else if (replay.records.empty() && replay.status.IsDataLoss() &&
             replay.valid_bytes == 0) {
    // Mangled header: nothing in the file can be trusted.
    overall = replay.status;
    log_unusable = true;
  } else {
    if (replay.base_epoch > cur->epoch()) {
      // The log continues a checkpoint newer than the one we loaded (lost
      // or corrupt): its records cannot bridge the gap.
      if (overall.ok()) {
        overall = Status::DataLoss(StringPrintf(
            "wal continues epoch %llu but recovered base is epoch %llu",
            static_cast<unsigned long long>(replay.base_epoch),
            static_cast<unsigned long long>(cur->epoch())));
      }
      log_unusable = true;
    } else {
      for (const WalRecord& record : replay.records) {
        uint64_t seq = 0;
        UpdateBatch batch;
        Status parsed = ParseBatchPayload(record.payload, &seq, &batch);
        if (parsed.ok() && seq <= cur->epoch()) continue;  // pre-checkpoint
        std::vector<BoundOp> bound;
        if (parsed.ok() && seq != cur->epoch() + 1) {
          parsed = Status::DataLoss(StringPrintf(
              "wal sequence gap: expected %llu, found %llu",
              static_cast<unsigned long long>(cur->epoch() + 1),
              static_cast<unsigned long long>(seq)));
        }
        if (parsed.ok()) parsed = ValidateAndBind(batch, *cur, &bound);
        if (!parsed.ok()) {
          // A record that passed its CRC but does not apply cleanly is
          // corruption all the same: truncate here, keep the prefix.
          overall = Status::DataLoss("wal replay stopped at offset " +
                                     std::to_string(record.offset) + ": " +
                                     parsed.ToString());
          append_at = record.offset;
          break;
        }
        cur = BuildVersion(*cur, bound, seq);
      }
      if (overall.ok() && replay.status.IsDataLoss()) {
        overall = replay.status;  // torn tail past the replayed records
      }
    }
  }

  // 3. Reposition the log for appending (truncating any lost tail), or
  //    start a fresh one when the old log cannot be trusted at all.
  if (log_unusable) {
    auto w = WalWriter::Create(WalPath(), cur->epoch());
    if (!w.ok()) return w.status();
    wal_ = std::move(*w);
  } else {
    auto w = WalWriter::OpenForAppend(WalPath(), append_at);
    if (!w.ok()) return w.status();
    wal_ = std::move(*w);
  }

  SetTip(std::move(cur));
  return overall;
}

Result<uint64_t> VersionedStore::ApplyReplicated(const std::string& payload) {
  util::MutexLock commit_lock(commit_mu_);
  if (!recovered_) {
    return Status::Internal(
        "VersionedStore::Recover() must run before ApplyReplicated");
  }
  MCM_FAULT_POINT("repl/apply");

  uint64_t seq = 0;
  UpdateBatch batch;
  MCM_RETURN_NOT_OK(ParseBatchPayload(payload, &seq, &batch));

  std::shared_ptr<const EdbVersion> base = Pin();
  if (seq <= base->epoch()) {
    // Redelivery after a shipper restart: the batch is already part of this
    // store's history, so acknowledging it again is harmless.
    return base->epoch();
  }
  if (seq != base->epoch() + 1) {
    return Status::DataLoss(StringPrintf(
        "replication sequence gap: follower at epoch %llu, stream delivered "
        "%llu",
        static_cast<unsigned long long>(base->epoch()),
        static_cast<unsigned long long>(seq)));
  }
  std::vector<BoundOp> bound;
  Status valid = ValidateAndBind(batch, *base, &bound);
  if (!valid.ok()) {
    // A CRC-clean record that does not apply means the stream diverged from
    // the primary's history — corruption, not a caller error.
    return Status::DataLoss(StringPrintf(
        "replicated record %llu does not apply: %s",
        static_cast<unsigned long long>(seq), valid.ToString().c_str()));
  }
  if (durable()) {
    // Re-log the exact shipped bytes before the tip moves: an acknowledged
    // apply must survive a follower crash, same discipline as Commit.
    MCM_RETURN_NOT_OK(wal_->AppendRecord(payload));
  }
  SetTip(BuildVersion(*base, bound, seq));
  return seq;
}

Result<uint64_t> VersionedStore::InstallSnapshot(
    const std::string& checkpoint_bytes) {
  util::MutexLock commit_lock(commit_mu_);
  if (!recovered_) {
    return Status::Internal(
        "VersionedStore::Recover() must run before InstallSnapshot");
  }
  std::shared_ptr<const EdbVersion> base = Pin();
  if (base->epoch() != 0 || symbols_.size() != 0) {
    // Checkpoint symbol ids only line up on a fresh interning table; there
    // is no remap (a non-negative Value could be either a symbol id or an
    // integer literal), so the only safe path is a full reseed.
    return Status::FailedPrecondition(StringPrintf(
        "InstallSnapshot requires a fresh store (epoch 0, empty symbol "
        "table); this store is at epoch %llu with %zu symbols — reseed "
        "required",
        static_cast<unsigned long long>(base->epoch()), symbols_.size()));
  }
  MCM_FAULT_POINT("repl/install");
  // A failed load can leave symbols partially interned — the store is then
  // no longer fresh and the caller must reseed, which LoadCheckpoint's
  // kDataLoss (and the precondition above on any retry) makes explicit.
  auto loaded = LoadCheckpoint(checkpoint_bytes);
  if (!loaded.ok()) return loaded.status();
  uint64_t epoch = (*loaded)->epoch();

  if (durable()) {
    // Persist the image and restart the log at the snapshot epoch so a
    // follower crash after an acked install recovers to this same state.
    MCM_RETURN_NOT_OK(WriteFileAtomic(CheckpointPath(), checkpoint_bytes));
    auto w = WalWriter::Create(WalPath(), epoch);
    if (!w.ok()) return w.status();
    wal_ = std::move(*w);
  }
  SetTip(std::move(*loaded));
  return epoch;
}

Result<uint64_t> VersionedStore::BootstrapFromDatabase(const Database& db) {
  UpdateBatch batch;
  std::vector<std::string> names = db.RelationNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const Relation* rel = db.Find(name);
    batch.CreateRelation(name, rel->arity());
    for (const Tuple& t : rel->TuplesUnchecked()) {
      std::vector<std::string> fields;
      fields.reserve(rel->arity());
      for (uint32_t c = 0; c < rel->arity(); ++c) {
        fields.push_back(db.symbols().Contains(t[c])
                             ? db.symbols().Resolve(t[c])
                             : std::to_string(t[c]));
      }
      batch.Insert(name, std::move(fields));
    }
  }
  return Commit(batch);
}

}  // namespace mcm
