#include "core/checkpoint.hpp"

#include "common/crc32.hpp"
#include "common/io_util.hpp"

namespace cudalign::core {

std::uint64_t sequence_digest(seq::SequenceView bases) noexcept {
  // FNV-1a 64-bit over the encoded bases.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const seq::Base b : bases) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

/// Digests render as fixed-width hex: JSON integers are signed 64-bit, and a
/// digest with the top bit set would round-trip as a negative number.
std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::uint64_t parse_hex64(const std::string& text) {
  CUDALIGN_CHECK(text.size() == 16, "checkpoint digest is not 16 hex digits: \"", text, "\"");
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      CUDALIGN_CHECK(false, "checkpoint digest has a non-hex character: \"", text, "\"");
    }
    value = (value << 4) | digit;
  }
  return value;
}

obs::Json crosspoint_to_json(const Crosspoint& p) {
  return obs::Json::object()
      .set("i", p.i)
      .set("j", p.j)
      .set("score", p.score)
      .set("type", static_cast<std::int64_t>(p.type));
}

Crosspoint crosspoint_from_json(const obs::Json& json) {
  Crosspoint p;
  p.i = json.at("i").as_int();
  p.j = json.at("j").as_int();
  p.score = static_cast<Score>(json.at("score").as_int());
  const std::int64_t type = json.at("type").as_int();
  CUDALIGN_CHECK(type >= 0 && type <= 2, "checkpoint crosspoint has invalid type ", type);
  p.type = static_cast<dp::CellState>(type);
  return p;
}

obs::Json list_to_json(const CrosspointList& list) {
  obs::Json array = obs::Json::array();
  for (const Crosspoint& p : list) array.push(crosspoint_to_json(p));
  return array;
}

CrosspointList list_from_json(const obs::Json& json) {
  CrosspointList list;
  for (const obs::Json& entry : json.as_array()) list.push_back(crosspoint_from_json(entry));
  return list;
}

obs::Json envelope_to_json(const CheckpointEnvelope& e) {
  return obs::Json::object()
      .set("s0_digest", hex64(e.s0_digest))
      .set("s1_digest", hex64(e.s1_digest))
      .set("s0_length", e.s0_length)
      .set("s1_length", e.s1_length)
      .set("options", e.options);
}

CheckpointEnvelope envelope_from_json(const obs::Json& json) {
  return CheckpointEnvelope{parse_hex64(json.at("s0_digest").as_string()),
                            parse_hex64(json.at("s1_digest").as_string()),
                            json.at("s0_length").as_int(), json.at("s1_length").as_int(),
                            json.at("options")};
}

/// Appends one line per leaf where the two trees differ, "<path>: checkpoint
/// has <a>, this run has <b>" (values as compact JSON; a key only one side
/// has shows as `absent` on the other).
void diff_json(std::vector<std::string>& out, const std::string& path, const obs::Json* mine,
               const obs::Json* theirs) {
  const auto child = [&](const std::string& key) { return path.empty() ? key : path + "." + key; };
  if (mine != nullptr && theirs != nullptr && mine->is_object() && theirs->is_object()) {
    for (const auto& [key, value] : mine->as_object()) {
      diff_json(out, child(key), &value, theirs->find(key));
    }
    for (const auto& [key, value] : theirs->as_object()) {
      if (mine->find(key) == nullptr) diff_json(out, child(key), nullptr, &value);
    }
    return;
  }
  const std::string a = mine != nullptr ? mine->dump(0) : "absent";
  const std::string b = theirs != nullptr ? theirs->dump(0) : "absent";
  if (a != b) out.push_back(path + ": checkpoint has " + a + ", this run has " + b);
}

}  // namespace

std::vector<std::string> CheckpointEnvelope::mismatches(const CheckpointEnvelope& other) const {
  std::vector<std::string> out;
  const obs::Json mine = envelope_to_json(*this);
  const obs::Json theirs = envelope_to_json(other);
  diff_json(out, "", &mine, &theirs);
  return out;
}

void validate_checkpoint_state(const CheckpointState& state) {
  const CheckpointEnvelope& e = state.envelope;
  const Index m = e.s0_length, n = e.s1_length;
  CUDALIGN_CHECK(m >= 0 && n >= 0, "checkpoint envelope has negative sequence lengths");
  const auto stage = static_cast<std::int64_t>(state.stage);
  CUDALIGN_CHECK(stage >= 1 && stage <= 6, "checkpoint names an unknown stage ", stage);

  const Stage1Progress& p = state.stage1;
  CUDALIGN_CHECK(p.last_flushed_row >= 0 && p.last_flushed_row < std::max<Index>(m, 1) &&
                     p.special_rows_saved >= 0 && p.flush_interval >= 0,
                 "checkpoint stage-1 progress is out of range");
  if (p.last_flushed_row > 0) {
    // Only a flushed row needs the grid: a state with none may carry no
    // options at all.
    const obs::Json& grid = e.options.at("grid_stage1");
    const Index strip_rows = grid.at("alpha").as_int() * grid.at("threads").as_int();
    CUDALIGN_CHECK(strip_rows > 0 && p.flush_interval > 0 && p.special_rows_saved > 0,
                   "checkpoint records a flushed row but no strip height / flush interval / "
                   "saved rows");
    CUDALIGN_CHECK(p.last_flushed_row % strip_rows == 0,
                   "checkpoint stage-1 row ", p.last_flushed_row,
                   " is not on a strip boundary (strip height ", strip_rows, ")");
    CUDALIGN_CHECK((p.last_flushed_row / strip_rows) % p.flush_interval == 0,
                   "checkpoint stage-1 row ", p.last_flushed_row,
                   " is not on a flush boundary (interval ", p.flush_interval, " strips)");
  }

  if (state.stage >= CheckpointStage::kStage2) {
    const Crosspoint& end = state.end_point;
    CUDALIGN_CHECK(end.type == dp::CellState::kH && end.score >= 0 && end.i >= 0 &&
                       end.i <= m && end.j >= 0 && end.j <= n,
                   "checkpoint end point is invalid");
    // Every list the cursor implies must be a valid chain (monotone, inside
    // the matrix) from L2's start point to the end point.
    const auto check_list = [&](const CrosspointList& list, const char* name) {
      validate_chain(list, m, n, end.score);
      CUDALIGN_CHECK(list.back() == end && list.front() == state.l2.front(), "checkpoint ", name,
                     " does not chain between the start and end points");
    };
    // Best score 0 = empty optimal alignment: the pipeline short-circuits
    // after Stage 1 and the crosspoint lists legitimately stay empty.
    if (end.score > 0) {
      if (state.stage >= CheckpointStage::kStage3) {
        check_list(state.l2, "L2");
        CUDALIGN_CHECK(state.special_cols_saved >= 0,
                       "checkpoint special-column count is negative");
      }
      if (state.stage >= CheckpointStage::kStage4) check_list(state.l3, "L3");
      if (state.stage >= CheckpointStage::kStage5) check_list(state.l4, "L4");
    }
  }
}

obs::Json checkpoint_to_json(const CheckpointState& state) {
  obs::Json body = obs::Json::object();
  body.set("envelope", envelope_to_json(state.envelope));
  body.set("stage", static_cast<std::int64_t>(state.stage));
  body.set("stage1", obs::Json::object()
                         .set("last_flushed_row", state.stage1.last_flushed_row)
                         .set("special_rows_saved", state.stage1.special_rows_saved)
                         .set("flush_interval", state.stage1.flush_interval)
                         .set("best", obs::Json::object()
                                          .set("score", state.stage1.best_score)
                                          .set("i", state.stage1.best_i)
                                          .set("j", state.stage1.best_j)));
  body.set("end_point", crosspoint_to_json(state.end_point));
  body.set("l2", list_to_json(state.l2));
  body.set("special_cols_saved", state.special_cols_saved);
  body.set("l3", list_to_json(state.l3));
  body.set("l4", list_to_json(state.l4));

  // The CRC covers the canonical (single-line) body serialization: any edit
  // to the body — manual or bit rot — invalidates it.
  const std::uint32_t crc = common::crc32(body.dump(0));
  return obs::Json::object()
      .set("schema", kCheckpointSchemaName)
      .set("format_version", kCheckpointFormatVersion)
      .set("body_crc", static_cast<std::int64_t>(crc))
      .set("body", std::move(body));
}

CheckpointState checkpoint_from_json(const obs::Json& document) {
  const obs::Json& schema = document.at("schema");
  CUDALIGN_CHECK(schema.is_string() && schema.as_string() == kCheckpointSchemaName,
                 "not a cudalign checkpoint manifest (schema mismatch)");
  const std::int64_t version = document.at("format_version").as_int();
  CUDALIGN_CHECK(version == kCheckpointFormatVersion, "checkpoint manifest has format version ",
                 version, " but this build reads version ", kCheckpointFormatVersion,
                 " — refusing to reinterpret it");
  const obs::Json& body = document.at("body");
  const auto expected_crc = static_cast<std::uint32_t>(document.at("body_crc").as_int());
  const std::uint32_t actual_crc = common::crc32(body.dump(0));
  CUDALIGN_CHECK(actual_crc == expected_crc,
                 "checkpoint manifest failed its CRC-32 check — the body was altered or "
                 "corrupted after it was written");

  CheckpointState state;
  state.envelope = envelope_from_json(body.at("envelope"));
  const std::int64_t stage = body.at("stage").as_int();
  CUDALIGN_CHECK(stage >= 1 && stage <= 6, "checkpoint names an unknown stage ", stage);
  state.stage = static_cast<CheckpointStage>(stage);
  const obs::Json& stage1 = body.at("stage1");
  state.stage1.last_flushed_row = stage1.at("last_flushed_row").as_int();
  state.stage1.special_rows_saved = stage1.at("special_rows_saved").as_int();
  state.stage1.flush_interval = stage1.at("flush_interval").as_int();
  const obs::Json& best = stage1.at("best");
  state.stage1.best_score = static_cast<Score>(best.at("score").as_int());
  state.stage1.best_i = best.at("i").as_int();
  state.stage1.best_j = best.at("j").as_int();
  state.end_point = crosspoint_from_json(body.at("end_point"));
  state.l2 = list_from_json(body.at("l2"));
  state.special_cols_saved = body.at("special_cols_saved").as_int();
  state.l3 = list_from_json(body.at("l3"));
  state.l4 = list_from_json(body.at("l4"));
  validate_checkpoint_state(state);
  return state;
}

CheckpointManifest::CheckpointManifest(const std::filesystem::path& directory)
    : file_(directory / kCheckpointFileName) {
  std::filesystem::create_directories(directory);
}

CheckpointState CheckpointManifest::load() {
  CUDALIGN_CHECK(exists(), "no checkpoint manifest at " + file_.string());
  const std::string text = read_file(file_);
  bytes_read_ += static_cast<std::int64_t>(text.size());
  obs::Json document;
  try {
    document = obs::Json::parse(text);
  } catch (const Error& e) {
    throw Error("checkpoint manifest " + file_.string() +
                " is not valid JSON (torn or corrupt): " + e.what());
  }
  try {
    return checkpoint_from_json(document);
  } catch (const Error& e) {
    throw Error("checkpoint manifest " + file_.string() + " is invalid: " + e.what());
  }
}

void CheckpointManifest::save(const CheckpointState& state) {
  validate_checkpoint_state(state);
  const std::string text = checkpoint_to_json(state).dump(2) + "\n";
  atomic_write_file_durable(file_, text);
  bytes_written_ += static_cast<std::int64_t>(text.size());
  ++updates_;
}

}  // namespace cudalign::core
