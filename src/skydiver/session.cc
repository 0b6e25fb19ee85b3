#include "skydiver/session.h"

#include <utility>

#include "common/binio.h"
#include "engine/plan.h"
#include "engine/query_context.h"
#include "engine/runtime.h"

namespace skydiver {

namespace {
constexpr char kSessionMagic[8] = {'S', 'K', 'Y', 'D', 'S', 'E', 'S', '1'};

// Answers one query against the session's snapshot with a fresh serial
// context (the session API is synchronous; concurrent serving goes through
// serve/serve.h instead).
Result<std::vector<RowId>> RunQuery(const SkySnapshot& snapshot, const QuerySpec& spec) {
  QueryContext ctx(Runtime::Create(0), CostModel{}, BandingSeed(snapshot.seed(), spec));
  auto result = snapshot.Select(spec, ctx);
  if (!result.ok()) return result.status();
  return std::move(result.value().rows);
}

}  // namespace

Result<SkyDiverSession> SkyDiverSession::Create(const DataSet& data,
                                                size_t signature_size, uint64_t seed,
                                                const RTree* tree) {
  SkyDiverConfig config;
  config.signature_size = signature_size;
  config.seed = seed;
  PlanResources resources;
  resources.tree = tree;
  auto snapshot = SkySnapshot::Build(data, config, resources);
  if (!snapshot.ok()) return snapshot.status();

  SkyDiverSession session;
  session.snapshot_ = std::move(snapshot).value();
  return session;
}

Result<std::vector<RowId>> SkyDiverSession::SelectMinHash(size_t k) const {
  QuerySpec spec;
  spec.mode = SelectMode::kMinHash;
  spec.k = k;
  return RunQuery(*snapshot_, spec);
}

Result<std::vector<RowId>> SkyDiverSession::SelectLsh(size_t k, double threshold,
                                                      size_t buckets) const {
  QuerySpec spec;
  spec.mode = SelectMode::kLsh;
  spec.k = k;
  spec.lsh_threshold = threshold;
  spec.lsh_buckets = buckets;
  return RunQuery(*snapshot_, spec);
}

Status SkyDiverSession::SaveToFile(const std::string& path) const {
  const auto& skyline = snapshot_->skyline();
  const auto& scores = snapshot_->domination_scores();
  const SignatureMatrix& signatures = snapshot_->signatures();
  BinaryWriter writer(path, kSessionMagic);
  if (!writer.ok()) return Status::IoError("cannot open '" + path + "' for writing");
  writer.WriteU64(snapshot_->seed());
  writer.WriteU64(skyline.size());
  for (RowId r : skyline) writer.WriteU32(r);
  for (uint64_t s : scores) writer.WriteU64(s);
  writer.WriteU64(signatures.signature_size());
  signatures.WriteSlots(writer);
  return writer.Finish();
}

Result<SkyDiverSession> SkyDiverSession::LoadFromFile(const std::string& path) {
  BinaryReader reader(path, kSessionMagic);
  SKYDIVER_RETURN_NOT_OK(reader.status());
  uint64_t seed = 0;
  uint64_t m = 0;
  if (!reader.ReadU64(&seed) || !reader.ReadU64(&m)) {
    return Status::IoError("'" + path + "': truncated session header");
  }
  std::vector<RowId> skyline(m);
  for (auto& r : skyline) {
    if (!reader.ReadU32(&r)) return Status::IoError("'" + path + "': truncated skyline");
  }
  std::vector<uint64_t> scores(m);
  for (auto& s : scores) {
    if (!reader.ReadU64(&s)) return Status::IoError("'" + path + "': truncated scores");
  }
  uint64_t t = 0;
  if (!reader.ReadU64(&t)) return Status::IoError("'" + path + "': truncated header");
  SignatureMatrix signatures(t, m);
  SKYDIVER_RETURN_NOT_OK(signatures.ReadSlots(reader, path));
  SKYDIVER_RETURN_NOT_OK(reader.VerifyChecksum());
  auto snapshot = SkySnapshot::Adopt(std::move(skyline), std::move(scores),
                                     std::move(signatures), seed);
  if (!snapshot.ok()) return snapshot.status();
  SkyDiverSession session;
  session.snapshot_ = std::move(snapshot).value();
  return session;
}

}  // namespace skydiver
