// Versioned shared-memory artefact store.
//
// One host, N serving processes, one trained model: the installation
// artefacts (model.json + config.json payloads, byte-for-byte) are published
// into a single mmap-able region that every process attaches read-only.
// Mapped from a tmpfs path (/dev/shm/...) the payload exists once in
// physical memory no matter how many processes serve from it; any regular
// file path works too (tests use /tmp scratch).
//
// The region's format discipline follows the fixed-offset, versioned-magic
// control-block style of the Cai900205 libips exemplar (SNIPPETS.md #1):
// every field lives at a compile-time offset, the magic word carries the
// format version in its low byte, and a seqlock-style generation counter
// makes torn publishes detectable instead of silently served.
//
// Format v2 (this header) adds *writer-liveness repair*: v1's seqlock told a
// reader that a publish was in progress, but a publisher that died mid-swap
// left the generation odd forever — "retry later" never succeeded. v2 stamps
// the publisher's identity (pid + /proc start-time nonce, which together
// survive pid reuse) and keeps descriptors for the *previous* complete
// payload, written before the generation ever goes odd. A reader that
// exhausts its retry budget probes the writer: if the pid is dead (or the
// nonce says the pid was recycled), the odd generation is a tombstone and
// the region is healed by rolling the descriptors back to the previous
// payload and the generation forward to the next even value. New payloads
// are written into whichever byte range the previous payload does NOT
// occupy (low slot at offset 128, or after the active extent), so healing
// always finds its bytes intact.
//
//   offset  field              contents
//   ------  -----------------  -------------------------------------------
//       0   magic              0xAD5A1A00 | format version (2)
//       4   header_bytes       128 (lets future versions grow the header)
//       8   generation         seqlock: odd = publish in progress; a reader
//                              must see the same even value before and
//                              after copying the payload
//      16   model_offset       byte offset of the model.json payload
//      24   model_bytes        its length
//      32   config_offset      byte offset of the config.json payload
//      40   config_bytes       its length
//      48   total_bytes        whole-region length (bounds check anchor)
//      56   writer_pid         pid of the publisher that last took the
//                              generation odd
//      64   writer_nonce       that pid's /proc/<pid>/stat starttime at
//                              publish time (0 when unreadable)
//      72   prev_model_offset  descriptors of the last *complete* payload,
//      80   prev_model_bytes   written while the generation was still even
//      88   prev_config_offset — the heal target
//      96   prev_config_bytes
//     104   prev_generation    the even generation those bytes served under
//                              (0 = no previous payload; first publish)
//     112   reserved           0
//     120   reserved2          0
//     128   payload...
//
// publish_shm_region is the only writer (flock-serialised; generation odd ->
// payload into the free slot -> descriptors -> generation even, all
// release-ordered); read_shm_region copies the payloads out under the
// generation check and retries a bounded number of times, then falls into
// the liveness probe + heal path above. Validation of the payload *content*
// is not done here — AdsalaGemm::try_attach feeds the copied bytes through
// the exact same ladder try_load applies to files.
//
// ShmHeaderWatch is the cheap "did anything change?" check for a process
// that polls a region (the daemon's --reattach): it keeps a read-only
// mapping of the header alone and reads the generation word through it,
// so a probe that finds nothing new copies no payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include <sys/types.h>

#include "common/status.h"

namespace adsala::core {

inline constexpr std::uint32_t kShmFormatVersion = 2;
inline constexpr std::uint32_t kShmMagic = 0xAD5A1A00u | kShmFormatVersion;
inline constexpr std::uint32_t kShmHeaderBytes = 128;

/// The fixed-offset region header. POD on purpose: it is the wire format.
struct ShmHeader {
  std::uint32_t magic;
  std::uint32_t header_bytes;
  std::uint64_t generation;
  std::uint64_t model_offset;
  std::uint64_t model_bytes;
  std::uint64_t config_offset;
  std::uint64_t config_bytes;
  std::uint64_t total_bytes;
  std::uint64_t writer_pid;
  std::uint64_t writer_nonce;
  std::uint64_t prev_model_offset;
  std::uint64_t prev_model_bytes;
  std::uint64_t prev_config_offset;
  std::uint64_t prev_config_bytes;
  std::uint64_t prev_generation;
  std::uint64_t reserved;
  std::uint64_t reserved2;
};
static_assert(sizeof(ShmHeader) == kShmHeaderBytes,
              "header layout is a wire format — do not let it drift");
static_assert(offsetof(ShmHeader, generation) == 8 &&
                  offsetof(ShmHeader, model_offset) == 16 &&
                  offsetof(ShmHeader, total_bytes) == 48 &&
                  offsetof(ShmHeader, writer_pid) == 56 &&
                  offsetof(ShmHeader, writer_nonce) == 64 &&
                  offsetof(ShmHeader, prev_model_offset) == 72 &&
                  offsetof(ShmHeader, prev_generation) == 104,
              "field offsets are part of the format");

/// A stable copy of one generation's payloads.
struct ShmArtefacts {
  std::string model_json;
  std::string config_json;
  std::uint64_t generation = 0;
};

/// Publishes an artefact pair into the region at `path` (created or updated
/// in place under the seqlock protocol; writers are serialised by an
/// exclusive flock on the region file, which the kernel releases even if
/// the holder is SIGKILL-ed). Returns kOk, kUnavailable when another
/// publisher holds the lock, or a path-qualified I/O failure.
Error publish_shm_region(const std::string& path,
                         const std::string& model_json,
                         const std::string& config_json);

/// Which publish a region path holds: the file (device, inode) and the
/// generation word in it. A region removed and published again is a new
/// file, so its stamp differs even when its generation counter restarted
/// at the old value.
struct ShmStamp {
  std::uint64_t device = 0;
  std::uint64_t inode = 0;
  std::uint64_t generation = 0;
  bool operator==(const ShmStamp&) const = default;
};

/// A read-only mapping of one region's 128-byte header, kept across probes.
/// probe() costs one stat(2) and one acquire load of the generation word;
/// it maps the header again only when the path names a different file than
/// the last probe saw. It reads no payload and never heals: a stamp that
/// moved tells the caller to read_shm_region (or try_attach) the new bytes.
class ShmHeaderWatch {
 public:
  explicit ShmHeaderWatch(std::string path);
  ~ShmHeaderWatch();
  ShmHeaderWatch(const ShmHeaderWatch&) = delete;
  ShmHeaderWatch& operator=(const ShmHeaderWatch&) = delete;

  /// The stamp of what the path holds now; nullopt when there is no file,
  /// it is shorter than a header, or its magic is not this format's.
  /// Regions only grow in place, so the mapped header page stays backed.
  std::optional<ShmStamp> probe();

 private:
  void unmap();

  std::string path_;
  void* header_ = nullptr;  ///< mapping of the first kShmHeaderBytes
  std::uint64_t device_ = 0;
  std::uint64_t inode_ = 0;
};

/// Attaches to the region and copies one *stable* generation of payloads
/// out. When the retry budget is exhausted on an odd generation, probes the
/// stamped writer's liveness and — if the writer is dead — heals the region
/// to the previous complete payload and retries once. Failure taxonomy:
/// kNotFound (no region), kParseError (too small / payload bounds beyond
/// the mapping — a torn create), kValidationError (wrong magic: not an
/// ADSALA region or an incompatible format version), kUnavailable (live
/// publisher mid-swap past the retry budget, or a dead writer's region with
/// no previous payload to heal to).
Expected<ShmArtefacts> read_shm_region(const std::string& path);

/// Rolls a dead writer's region back to the previous complete payload:
/// under an exclusive flock, re-verifies that the generation is still odd
/// and the previous-payload descriptors are valid, then republishes them as
/// the active descriptors and bumps the generation to the next even value.
/// Returns kOk after healing, kOk also when the region turned out healthy
/// (a publisher finished first), kUnavailable when the lock is held or
/// there is no previous payload (crash during first publish), and the usual
/// I/O taxonomy otherwise. Exposed for the crash harness; read_shm_region
/// calls it automatically after a failed liveness probe.
Error heal_shm_region(const std::string& path);

/// The start-time nonce for `pid` (/proc/<pid>/stat field 22). 0 when the
/// stat file is unreadable. Together with the pid this identifies one
/// process incarnation — a recycled pid gets a different nonce.
std::uint64_t process_start_nonce(pid_t pid);

/// True when the (pid, nonce) stamp plausibly names a live process: the pid
/// exists and its current start nonce matches the stamp (or either side's
/// nonce is unreadable, in which case liveness is assumed — healing a live
/// publisher is worse than waiting out a dead one).
bool writer_alive(pid_t pid, std::uint64_t nonce);

}  // namespace adsala::core
