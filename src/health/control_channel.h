// Hardened StrongARM <-> Pentium control channel.
//
// The paper's install/remove/getdata/setdata interface (§4.5) assumes the
// PCI control path delivers every message. This wrapper makes the channel
// robust to a lossy link: every request carries a sequence number, the
// receiver acknowledges execution, and the sender retries on per-attempt
// timeouts with deterministic seeded exponential backoff. The receiver
// caches results by sequence number, so retries and duplicated deliveries
// are idempotent — a Remove that executed but whose ack was dropped is not
// re-executed, and the cached outcome is re-acked.
//
// Link faults (drop / duplicate / delay, applied to requests and acks
// alike) come from the router's FaultInjector via OnCtrlMessage; with no
// injector attached the link is perfect. All timing and randomness are
// deterministic: the same seed yields a bit-identical trace().

#ifndef SRC_HEALTH_CONTROL_CHANNEL_H_
#define SRC_HEALTH_CONTROL_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/router.h"
#include "src/sim/random.h"
#include "src/vrp/isa.h"

namespace npr {

struct ControlChannelConfig {
  uint64_t seed = 0xc7a1c7a1ULL;
  // One-way request/ack latency over the (simulated) PCI control path.
  SimTime link_delay_ps = 10 * kPsPerUs;
  // Per-attempt ack deadline; a miss counts a ctrl_timeout and retries.
  SimTime ack_timeout_ps = 200 * kPsPerUs;
  // Retry n waits base * 2^(n-1), jittered by +/- `backoff_jitter`.
  SimTime backoff_base_ps = 100 * kPsPerUs;
  double backoff_jitter = 0.25;
  int max_attempts = 8;
};

// Uniform result for all four control operations.
struct CtrlResult {
  bool ok = false;
  uint32_t fid = 0;             // Install
  std::vector<uint8_t> data;    // GetData
  std::string error;
};

class ControlChannel {
 public:
  using Callback = std::function<void(const CtrlResult&)>;

  ControlChannel(Router& router, ControlChannelConfig config = ControlChannelConfig{});
  // Pins the channel's timers/deliveries to an explicit engine instead of
  // the router's own. A cluster's probe channels run on the hub engine
  // while the probed router runs on its node shard; executions then
  // happen in the hub phase, when the shard is parked. Equivalent to the
  // two-argument form whenever `engine == router.engine()`.
  ControlChannel(Router& router, EventQueue& engine,
                 ControlChannelConfig config = ControlChannelConfig{});

  // Each submits one control message and returns its sequence number.
  // The request (including any VRP program payload) is copied; execution
  // and the callback happen at simulated ack time.
  uint64_t Install(const InstallRequest& request, Callback done = nullptr);
  uint64_t Remove(uint32_t fid, Callback done = nullptr);
  uint64_t GetData(uint32_t fid, Callback done = nullptr);
  uint64_t SetData(uint32_t fid, std::vector<uint8_t> data, Callback done = nullptr);
  // Ships a replacement image for flow `fid` to the peer's upgrade
  // orchestrator (src/core/upgrade.h), which shadows, cuts over, and soaks
  // it; the ack reports whether the episode *started* (the orchestrator's
  // own verdict arrives later through its phase/report). The image crosses
  // the link as bytes: with a fault injector armed, image_corrupt_p may
  // flip a bit in the receiver's copy — `checksum` (VrpImageChecksum of the
  // sent program) then refuses it on arrival while the sender's copy stays
  // pristine, so a resend under a fresh sequence number can succeed.
  uint64_t Upgrade(uint32_t fid, const VrpProgram& program, uint64_t checksum,
                   Callback done = nullptr);

  // Sender-side status for a sequence number.
  bool acked(uint64_t seq) const;
  bool failed(uint64_t seq) const;  // gave up after max_attempts
  const CtrlResult* result(uint64_t seq) const;
  size_t in_flight() const;

  // Deterministic event log ("t=<ps> seq=<n> ..."); bit-identical across
  // same-seed runs.
  const std::vector<std::string>& trace() const { return trace_; }

  uint64_t executed_count() const { return executed_count_; }

  // Hard link state: while down, every crossing (request and ack alike) is
  // dropped — the peer is unreachable, not merely lossy. Cluster health
  // mirrors node up/down onto its probe channels through this.
  void set_link_up(bool up) { link_up_ = up; }
  bool link_up() const { return link_up_; }

 private:
  enum class Op : uint8_t { kInstall, kRemove, kGetData, kSetData, kUpgrade };

  struct Pending {
    Op op = Op::kInstall;
    InstallRequest request;      // kInstall (program pointer fixed up below)
    VrpProgram program;          // owned copy of the install payload
    bool has_program = false;
    uint32_t fid = 0;            // kRemove / kGetData / kSetData / kUpgrade
    std::vector<uint8_t> data;   // kSetData payload
    uint64_t checksum = 0;       // kUpgrade image checksum
    Callback done;
    int attempt = 0;
    bool acked = false;
    bool failed = false;
    CtrlResult result;
  };

  static const char* OpName(Op op);

  uint64_t Submit(Pending pending);
  void SendAttempt(uint64_t seq);
  void DeliverRequest(uint64_t seq);
  void SendAck(uint64_t seq, const CtrlResult& result);
  void DeliverAck(uint64_t seq, CtrlResult result);
  void OnAttemptTimeout(uint64_t seq, int attempt);
  // Applies link faults to one crossing. Returns the number of copies to
  // deliver (0 = dropped) and the extra delay for each.
  int LinkCrossing(uint64_t seq, const char* what, SimTime* extra_delay_ps);
  CtrlResult Execute(const Pending& pending);
  void Note(const char* fmt, ...);

  Router& router_;
  EventQueue& engine_;
  ControlChannelConfig cfg_;
  Rng rng_;
  bool link_up_ = true;
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Pending> pending_;
  // Receiver-side idempotency cache: seq -> executed result.
  std::map<uint64_t, CtrlResult> executed_;
  uint64_t executed_count_ = 0;
  std::vector<std::string> trace_;
};

}  // namespace npr

#endif  // SRC_HEALTH_CONTROL_CHANNEL_H_
