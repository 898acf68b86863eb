// Transport abstraction the motif engine runs over.
//
// A Channel is a (sender, receiver, tag) stream of equally sized messages
// whose count is known before the motif starts — exactly the "operations
// on a buffer are predictable" condition the paper says makes RVMA's
// threshold completion definable (§III-B). Motifs declare their channels
// up front; the transport performs whatever setup its protocol requires
// (RDMA: buffer-negotiation handshakes; RVMA: local window init + buffer
// posting, no network traffic), then serves sends and receives. Set-up
// is done when its traffic goes quiet, and the motif starts at that
// instant (MotifRunner::run).
//
// Channels are addressed by dense index: a ChannelId is the channel's
// position in the vector handed to setup(), so a transport keeps one flat
// record per channel and never looks a channel up by key.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace rvma::motifs {

/// Index of a channel in the vector passed to Transport::setup().
using ChannelId = std::uint32_t;

struct Channel {
  int src = -1;
  int dst = -1;
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;  ///< per-message payload
  int count = 0;            ///< messages the motif will send on this channel

  bool operator==(const Channel&) const = default;
};

struct TransportStats {
  std::uint64_t data_messages = 0;
  std::uint64_t control_messages = 0;  ///< credits, completions, handshakes
  std::uint64_t credit_stalls = 0;     ///< sends that had to wait for credit
};

/// The continuation a blocked channel side resumes. A rank blocks on each
/// send and each recv_wait, so one side of a channel never holds more
/// than one waiter; park() asserts it.
class WaiterSlot {
 public:
  bool empty() const { return !fn_; }
  void park(std::function<void()> fn) {
    assert(empty() && "second waiter on one side of a channel");
    fn_ = std::move(fn);
  }
  /// Empty the slot and return its continuation. The slot is free before
  /// the continuation runs, so it may park the rank's next wait here.
  std::function<void()> take() { return std::exchange(fn_, nullptr); }

 private:
  std::function<void()> fn_;
};

/// A channel has at most one send and one recv_wait outstanding at a time
/// (see WaiterSlot).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::string name() const = 0;

  /// Declare every channel and start protocol set-up. Set-up is done
  /// when its traffic quiesces: the caller runs the cluster until no
  /// event is pending, and every channel must be usable then. Set-up
  /// events run on the shards of the nodes they touch, so they share no
  /// state across ranks (no completion counter).
  virtual void setup(const std::vector<Channel>& channels) = 0;

  /// Receiver pre-arms the next incoming message on the channel.
  /// Local and non-blocking; RDMA uses it to return a credit to the sender.
  virtual void recv_post(ChannelId ch) = 0;

  /// Sender transfers one message on the channel. `done` fires when the
  /// sender may continue (local completion semantics of the protocol).
  virtual void send(ChannelId ch, std::function<void()> done) = 0;

  /// Receiver blocks until the next message on the channel has fully
  /// arrived and the protocol's completion notification has been observed.
  virtual void recv_wait(ChannelId ch, std::function<void()> done) = 0;

  virtual const TransportStats& stats() const = 0;
};

}  // namespace rvma::motifs
