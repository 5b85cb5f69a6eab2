// Atomic, generational checkpoint publication: snapshot + log recovery.
//
// The engine's text checkpoints (engine/checkpoint.hpp) round-trip
// predictor weights and counters bit-exactly, but a bare file write is
// not crash-safe: a kill mid-write leaves a half snapshot and nothing
// says which generation is current. This manager adds the durability
// protocol around that payload, without knowing its format:
//
//   publish:  snapshot-<gen>.ckpt.tmp  ── write payload + wrapper header
//             fsync(tmp) → rename(tmp, snapshot-<gen>.ckpt) → fsync(dir)
//             MANIFEST.tmp → rename(MANIFEST) → fsync(dir)
//             prune generations older than the newest `retain`
//
//   recover:  read MANIFEST → try its snapshot → on any failure fall
//             back through older snapshot-*.ckpt generations, newest
//             first. A manifest pointing at a deleted or corrupt
//             snapshot therefore degrades, never fails.
//
// Each snapshot records the WAL sequence number it covers (wrapper
// header line), so recovery = load latest valid snapshot + replay the
// WAL suffix past `wal_seq` — the classic snapshot+log pairing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "obs/metrics.hpp"

namespace mfcp::storage {

struct CheckpointConfig {
  std::string dir;          // created if missing
  std::size_t retain = 3;   // generations kept on disk (>= 1)
};

/// One published (or recovered) snapshot generation.
struct CheckpointInfo {
  std::uint64_t generation = 0;
  std::uint64_t wal_seq = 0;  // highest WAL seq the snapshot covers
  std::string snapshot_path;
};

inline constexpr const char* kManifestMagic = "mfcp-storage-manifest 1";
inline constexpr const char* kSnapshotMagic = "mfcp-storage-snapshot 1";

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config);

  /// Publishes the next generation. `write` serializes the payload (the
  /// engine passes save_checkpoint); the wrapper header and the atomic
  /// tmp+rename+manifest dance are handled here. Returns the published
  /// generation's info.
  CheckpointInfo publish(std::uint64_t wal_seq,
                         const std::function<void(std::ostream&)>& write);

  /// Loads the newest recoverable generation: the manifest's snapshot
  /// first, then older generations newest-first when it is missing or
  /// `read` rejects it (returns false or throws). Returns std::nullopt
  /// when nothing on disk is loadable.
  [[nodiscard]] std::optional<CheckpointInfo> load_latest(
      const std::function<bool(std::istream&)>& read) const;

  /// Safe to read from any thread while the owner publishes (the
  /// /debug/storage route polls them from an HTTP worker).
  [[nodiscard]] std::uint64_t published_total() const noexcept {
    return published_.load();
  }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load();
  }
  [[nodiscard]] const CheckpointConfig& config() const noexcept {
    return config_;
  }

  void bind_metrics(obs::Counter* checkpoints) noexcept {
    checkpoints_counter_ = checkpoints;
  }

 private:
  void prune() const;

  CheckpointConfig config_;
  // Written only by the publishing thread; atomic so status readers on
  // other threads see whole values.
  std::atomic<std::uint64_t> generation_{0};  // last published or on disk
  std::atomic<std::uint64_t> published_{0};   // published by this instance
  obs::Counter* checkpoints_counter_ = nullptr;
};

/// Snapshot filename for a generation (snapshot-%08llu.ckpt).
[[nodiscard]] std::string snapshot_name(std::uint64_t generation);

}  // namespace mfcp::storage
