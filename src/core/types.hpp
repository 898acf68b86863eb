// Core RVMA types: epoch semantics, placement modes, NIC parameters.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace rvma::core {

/// How the NIC interprets a window's epoch threshold (paper §III-C):
/// a count of bytes written, or of completed put operations. `kInherit` is
/// only meaningful on a PostedBuffer handed to Mailbox::post: it means "use
/// the window's configured type" and never survives a successful post.
enum class EpochType { kBytes, kOps, kInherit };

/// How incoming payload is placed into the active buffer (paper §IV-B):
///  * kSteered  — initiator-supplied offsets; packets land wherever their
///                offset says, independent of arrival order (HPC mode; the
///                mode the paper's evaluation uses).
///  * kManaged  — receiver-managed: offsets are ignored and bytes are
///                appended in arrival order (sockets-like streaming mode).
enum class Placement { kSteered, kManaged };

/// RVMA opcodes (protocol class nic::kProtoRvma).
enum RvmaOp : std::uint32_t {
  kRvmaPut = 1,   ///< data; hdr.addr = mailbox vaddr, hdr.offset = offset
  kRvmaNack = 2,  ///< control; hdr.addr = vaddr, hdr.imm = Status reason
  kRvmaGet = 3,   ///< control; reply is a kRvmaPut to hdr.imm2 (reply vaddr)
};

/// Hardware-model parameters for the RVMA NIC (paper §III-A, §IV).
struct RvmaParams {
  /// Single-lookup mailbox LUT access (no wildcards, one resolution).
  Time lut_lookup = 25 * kNanosecond;
  /// Monitor/MWait-style wakeup after the completion-pointer write lands.
  Time mwait_wake = 5 * kNanosecond;
  /// Marginal cost of the completion-pointer cache-line write becoming
  /// visible in host memory. The write is one more DMA pipelined directly
  /// behind the payload's data writes (which both RDMA and RVMA models
  /// treat as part of packet processing), so only the serialization of one
  /// extra line is charged, not a full PCIe round trip.
  Time completion_write = 40 * kNanosecond;
  /// On-NIC completion counters available before spilling to host memory.
  int nic_counters = 1024;
  /// Extra per-packet cost when a buffer's counter lives in host memory
  /// (paper: ~200 ns on today's PCIe, tens of ns on Gen 6+).
  Time host_counter_penalty = 200 * kNanosecond;
  /// Retired buffers retained per mailbox for multi-epoch rewind (§IV-F).
  int retire_depth = 8;
  /// NACK initiators whose puts were discarded (closed/missing mailbox).
  /// Paper: "NACKs may be disabled to handle DoS attacks".
  bool nacks_enabled = true;
  /// Control message size for NACK / get-request traffic.
  std::uint32_t ctrl_bytes = 64;
  /// Enforce per-window protection keys: puts carrying the wrong key for a
  /// keyed window are discarded (and NACKed). Windows initialized without
  /// a key accept any traffic. Models the key_t the paper's
  /// RVMA_Init_window hands back.
  bool enforce_keys = true;
};

/// Mailbox vaddr reserved for the catch-all window (paper §III-C mentions
/// catch-all mailboxes for messages whose vaddr has no posted buffers).
inline constexpr std::uint64_t kCatchAllVaddr = ~std::uint64_t{0};

}  // namespace rvma::core
