// Checkpointing for trained Agua surrogates: save/load an AguaModel (its
// concept set plus both mapping functions) to a binary archive or a file.
// A deployment trains the surrogate once offline and serves explanations
// from the checkpoint — explanation generation involves no LLM (§3.5), so a
// loaded model is fully self-contained.
//
// Robustness (DESIGN.md §8): archives are CRC-framed per section
// (concept set, δθ, Ω), so corruption is detected and *typed* — a loader
// can tell a truncated download from a flipped bit from a version skew.
// File saves are crash-safe: tmp file + fsync + atomic rename, so a crash
// mid-save can never tear an existing checkpoint; readers only ever see the
// previous complete archive or the new complete archive.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "common/serialize.hpp"
#include "core/surrogate.hpp"

namespace agua::core {

/// Why a load failed — the diagnosis a monitoring plane or operator needs to
/// pick the right recovery (re-download vs re-train vs upgrade).
enum class LoadErrorCode {
  kIoError,          ///< file missing / unreadable / stream write-through failed
  kBadMagic,         ///< not an Agua archive at all
  kBadVersion,       ///< an Agua archive, but a version this build cannot read
  kTruncated,        ///< archive ends inside a section (torn copy, partial write)
  kBadChecksum,      ///< a section's CRC32 does not match its payload
  kStructural,       ///< sections decode but are internally inconsistent
  kTrailingGarbage,  ///< a valid archive followed by unread bytes
};

/// Stable token for each code ("bad_magic", "truncated", ...).
const char* load_error_name(LoadErrorCode code);

struct LoadError {
  LoadErrorCode code = LoadErrorCode::kIoError;
  std::string detail;  ///< human-readable specifics (section name, sizes, ...)
};

/// Result of a typed load: exactly one of `model` / `error` is meaningful.
struct LoadModelResult {
  std::optional<AguaModel> model;
  LoadError error;

  explicit operator bool() const { return model.has_value(); }
};

/// Serialize a model (concept set + δθ + Ω) into an archive.
void save_model(common::BinaryWriter& w, const AguaModel& model);

/// Read a model back with a typed diagnosis on failure. Never throws and
/// never crashes on corrupt input (fuzzed in test_model_io.cpp); rejects
/// archives with trailing bytes after the last section.
LoadModelResult load_model_ex(common::BinaryReader& r);

/// Read a model back; std::nullopt on version/magic mismatch or corruption.
/// (Compatibility wrapper over load_model_ex.)
std::optional<AguaModel> load_model(common::BinaryReader& r);

/// Crash-safe file save: writes `path + ".tmp"`, fsyncs, then atomically
/// renames over `path` (and fsyncs the directory). On any failure the tmp
/// file is removed and an existing `path` is left untouched.
/// Fault sites: `model_io.save.open`, `model_io.save.write` (short-write →
/// torn tmp, never a torn checkpoint), `model_io.save.rename`.
bool save_model_file(const std::string& path, const AguaModel& model);

/// File-level typed load. Fault site: `model_io.load.open`.
LoadModelResult load_model_file_ex(const std::string& path);

/// File-level wrappers. Return false / nullopt on I/O failure.
std::optional<AguaModel> load_model_file(const std::string& path);

/// Stable 16-hex-digit fingerprint of a model's full serialized state
/// (concept set + δθ + Ω weights, via save_model → FNV-1a 64). Two models
/// answer explanations identically iff their archives match, so the serving
/// plane keys its result cache and `/modelz` identity on this.
std::string model_fingerprint(const AguaModel& model);

}  // namespace agua::core
