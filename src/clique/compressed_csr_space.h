// Delta-compressed materialized clique-space adapter. CsrSpace stores every
// co-member id verbatim (arity x 4 bytes per s-clique: 24 B/triangle for the
// (3,4) space), which ROADMAP names as the memory wall for pinning many hot
// graphs. CompressedCsrSpace keeps the same build path — the specialized
// single-enumeration BuildCsrArena builders — but re-encodes each r-clique's
// co-member lists into a single byte arena: groups are sorted (within a
// group ascending, groups lexicographically), the first group head is a raw
// varint, every later head is a non-negative delta from the previous head,
// and within-group elements are positive deltas from their predecessor.
// Sorted adjacency-like id lists have small gaps, so most deltas fit one
// LEB128 byte and the arena shrinks by several x.
//
// ForEachSClique decodes block-wise (~kDecodeBlockIds ids) into per-worker
// thread-local scratch and only then replays the callback over the decoded
// groups, so the branchy varint decode and the engine's sequential scan stay
// in separate tight loops over a cache-resident block (the compute/decode
// overlap argument). Group reordering is invisible to every consumer: kappa
// is the unique fixed point (Theorems 1-3) and the SND/AND updates are
// h-indices over the co-member multiset, so tau and kappa stay bitwise
// identical to the uncompressed arena and the on-the-fly spaces.
//
// The compressed arena is IMMUTABLE: there is no ApplyPatch (a varint byte
// stream has no slack for in-place sentinels). The session drops compressed
// arenas on a mutating commit and rebuilds them lazily on the next decompose
// (SessionStats::compressed_drops), while uncompressed arenas stay patchable.
#ifndef NUCLEUS_CLIQUE_COMPRESSED_CSR_SPACE_H_
#define NUCLEUS_CLIQUE_COMPRESSED_CSR_SPACE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/clique/csr_space.h"
#include "src/common/cancel.h"
#include "src/common/types.h"

namespace nucleus {

namespace internal {

/// LEB128: 7 value bits per byte, high bit = continuation. Ids are 32-bit
/// but the helpers take uint64 so the codec round-trips any delta sum.
inline void AppendVarint(std::vector<std::uint8_t>* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

/// Decodes one varint at p (trusted input: the encoder wrote it, so no
/// bounds checks in the hot decode loop). Returns the byte past the varint.
inline const std::uint8_t* DecodeVarint(const std::uint8_t* p,
                                        std::uint64_t* v) {
  std::uint64_t value = *p & 0x7f;
  int shift = 7;
  while ((*p & 0x80) != 0) {
    ++p;
    value |= static_cast<std::uint64_t>(*p & 0x7f) << shift;
    shift += 7;
  }
  *v = value;
  return p + 1;
}

/// Ids decoded per scratch block in ForEachSClique. One block of co-member
/// groups is decoded into thread-local scratch, then the callback replays
/// over the decoded spans — decode and scan never interleave per group.
inline constexpr std::size_t kDecodeBlockIds = 128;

/// The delta+varint encoded arena: per-r-clique byte ranges into one byte
/// buffer, plus the uncompressed degrees (d_s per r-clique, needed as the
/// engines' tau_0 anyway and as the group count during decode).
struct CompressedArena {
  std::vector<Degree> degrees;
  std::vector<std::uint64_t> byte_offsets;  // n + 1 offsets into bytes
  std::vector<std::uint8_t> bytes;
};

/// Resident bytes of a compressed arena (same accounting style as
/// CsrArenaBytes: payload vectors).
inline std::uint64_t CompressedArenaBytes(std::size_t n,
                                          std::uint64_t encoded_bytes) {
  return encoded_bytes + (n + 1) * sizeof(std::uint64_t) +
         n * sizeof(Degree);
}

/// Re-encodes an uncompressed CsrArena (consumed) into delta+varint form.
/// Returns false — leaving the degrees in arena->degrees for the caller's
/// fly fallback — when the RESIDENT compressed size would exceed
/// budget_bytes. The uncompressed arena is transient build scratch here;
/// the budget prices only what stays resident.
bool EncodeCompressedArena(CsrArena* arena, int arity,
                           std::uint64_t budget_bytes, CompressedArena* out);

}  // namespace internal

template <typename Space>
class CompressedCsrSpace {
 public:
  /// Builds unconditionally (no memory budget).
  explicit CompressedCsrSpace(const Space& base, int threads = 1)
      : base_(&base), arity_(CoMemberArity(base)) {
    internal::CsrArena arena;
    const bool built =
        BuildCsrArena(base, threads,
                      std::numeric_limits<std::uint64_t>::max(), arity_,
                      &arena);
    (void)built;
    const bool ok = internal::EncodeCompressedArena(
        &arena, arity_, std::numeric_limits<std::uint64_t>::max(), &packed_);
    (void)ok;
  }

  /// Budget-checked build, mirroring CsrSpace::TryBuild: std::nullopt when
  /// the compressed arena would exceed budget_bytes, with the counted
  /// degrees left in *degrees_out so the fly fallback never re-counts.
  /// A stoppable ctl makes the build abandonable (nullopt, NO degrees
  /// contract — check ctl.ShouldStop() to tell the cases apart).
  ///
  /// Peak transient memory is the UNCOMPRESSED arena (the single-
  /// enumeration builders are reused, then re-encoded); budget_bytes
  /// bounds only the resident compressed form.
  static std::optional<CompressedCsrSpace> TryBuild(
      const Space& base, int threads, std::uint64_t budget_bytes,
      std::vector<Degree>* degrees_out, RunControl ctl = {}) {
    CompressedCsrSpace space(&base, CoMemberArity(base));
    internal::CsrArena arena;
    if (!BuildCsrArena(base, threads,
                       std::numeric_limits<std::uint64_t>::max(),
                       space.arity_, &arena, ctl)) {
      // An unlimited-budget build only fails when stopped.
      return std::nullopt;
    }
    if (ctl.CanStop() && ctl.ShouldStop()) return std::nullopt;
    if (!internal::EncodeCompressedArena(&arena, space.arity_, budget_bytes,
                                         &space.packed_)) {
      if (degrees_out != nullptr) *degrees_out = std::move(arena.degrees);
      return std::nullopt;
    }
    return space;
  }

  std::size_t NumRCliques() const { return packed_.degrees.size(); }

  /// d_s per r-clique — cached from the build, so this is free.
  std::vector<Degree> InitialDegrees(int /*threads*/ = 1) const {
    return packed_.degrees;
  }

  /// Liveness, delegated to the wrapped space (compressed arenas are never
  /// patched, so base and arena always cover the same id range).
  bool IsLiveR(CliqueId r) const {
    if constexpr (requires { base_->IsLiveR(r); }) {
      return base_->IsLiveR(r);
    } else {
      return true;
    }
  }

  std::vector<std::uint8_t> LiveRFlags() const {
    if constexpr (requires { base_->LiveRFlags(); }) {
      return base_->LiveRFlags();
    } else {
      return {};
    }
  }

  /// Block-wise decode-then-scan (see file comment): up to kDecodeBlockIds
  /// ids are varint-decoded into thread-local scratch, then fn is replayed
  /// over the decoded arity-spans, alternating until r's list is done.
  template <typename Fn>
  void ForEachSClique(CliqueId r, Fn&& fn) const {
    Degree remaining = packed_.degrees[r];
    if (remaining == 0) return;
    const std::size_t arity = static_cast<std::size_t>(arity_);
    const std::size_t groups_per_block =
        std::max<std::size_t>(1, internal::kDecodeBlockIds / arity);
    static thread_local std::vector<CliqueId> scratch;
    if (scratch.size() < groups_per_block * arity) {
      scratch.resize(groups_per_block * arity);
    }
    const std::uint8_t* p = packed_.bytes.data() + packed_.byte_offsets[r];
    std::uint64_t prev_head = 0;
    bool first = true;
    while (remaining > 0) {
      const std::size_t block = std::min<std::size_t>(
          remaining, groups_per_block);
      CliqueId* s = scratch.data();
      for (std::size_t g = 0; g < block; ++g) {
        std::uint64_t delta;
        p = internal::DecodeVarint(p, &delta);
        const std::uint64_t head = first ? delta : prev_head + delta;
        first = false;
        prev_head = head;
        std::uint64_t prev = head;
        s[0] = static_cast<CliqueId>(head);
        for (std::size_t k = 1; k < arity; ++k) {
          p = internal::DecodeVarint(p, &delta);
          prev += delta;
          s[k] = static_cast<CliqueId>(prev);
        }
        s += arity;
      }
      const CliqueId* base = scratch.data();
      for (std::size_t g = 0; g < block; ++g) {
        fn(std::span<const CliqueId>(base + g * arity, arity));
      }
      remaining -= static_cast<Degree>(block);
    }
  }

  /// Ids per s-clique (C(s,r) - 1).
  int arity() const { return arity_; }

  /// Resident bytes of the compressed arena.
  std::uint64_t MemoryBytes() const {
    return internal::CompressedArenaBytes(packed_.degrees.size(),
                                          packed_.bytes.size());
  }

  /// Bytes the equivalent uncompressed CsrSpace arena would pin (the
  /// compression-ratio denominator reported by benches and stats).
  std::uint64_t UncompressedBytes() const {
    std::uint64_t total_s = 0;
    for (Degree d : packed_.degrees) total_s += d;
    return internal::CsrArenaBytes(packed_.degrees.size(), total_s, arity_);
  }

  /// The wrapped on-the-fly space.
  const Space& base() const { return *base_; }

 private:
  CompressedCsrSpace(const Space* base, int arity)
      : base_(base), arity_(arity) {}

  const Space* base_;
  int arity_ = 1;
  internal::CompressedArena packed_;
};

}  // namespace nucleus

#endif  // NUCLEUS_CLIQUE_COMPRESSED_CSR_SPACE_H_
