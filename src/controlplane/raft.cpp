#include "controlplane/raft.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/fault.hpp"

namespace vdc::controlplane {

using Kind = ControlEntry::Kind;

ControlPlane::ControlPlane(simkit::Simulator& sim,
                           cluster::ClusterManager& cluster, Rng rng)
    : sim_(sim), cluster_(cluster), rng_(rng) {
  static_assert(kReplicas >= 1);
  static_assert(kElectionTimeoutMin > 0.0 &&
                kElectionTimeoutMax >= kElectionTimeoutMin);
  static_assert(kHeartbeatPeriod > 0.0 &&
                kHeartbeatPeriod < kElectionTimeoutMin);
  live_ = [this](NodeId id) { return cluster_.node(id).alive(); };
}

telemetry::MetricsRegistry& ControlPlane::metrics() {
  return sim_.telemetry().metrics();
}

bool ControlPlane::live(NodeId slot) const { return live_(slot); }

std::uint32_t ControlPlane::quorum() const {
  // Over the full replica set, never just the live ones: a minority
  // fragment must not commit no matter how many peers it believes dead.
  return static_cast<std::uint32_t>(replicas_.size() / 2 + 1);
}

void ControlPlane::start() {
  VDC_ASSERT(!running_);
  const std::size_t n = std::min<std::size_t>(
      kReplicas, std::max<std::size_t>(cluster_.node_count(), 1));
  VDC_ASSERT(cluster_.node_count() >= 1);
  running_ = true;
  replicas_.assign(n, Replica{});
  // Replica 0 boots as leader of term 1 — no t=0 election, so a run
  // without coordinator faults never draws from rng_ on the common path
  // differently than the single-coordinator baseline it must match.
  Replica& boot = replicas_[0];
  boot.role = Replica::Role::kLeader;
  boot.term = 1;
  boot.voted_for = 0;
  boot.next_index.assign(n, 1);
  boot.match_index.assign(n, 0);
  boot.log.push_back(LogRecord{1, ControlEntry{Kind::kNoop, 0, 0}});
  leaders_per_term_[1] = 0;
  metrics().set("cp.term", 1.0);
  advance_commit(0);
  broadcast_append(0);
  schedule_heartbeat(0);
  for (NodeId slot = 1; slot < n; ++slot) arm_election(slot);
  note_leader(0);
}

void ControlPlane::stop() {
  running_ = false;
  for (Replica& r : replicas_) disarm(r);
  // Pending commit waiters are dropped, not failed: the job is over and
  // the runtime that registered them is being torn down.
  waiters_.clear();
  leader_waiters_.clear();
}

void ControlPlane::disarm(Replica& r) {
  if (r.election_timer != simkit::kInvalidEvent) {
    sim_.cancel(r.election_timer);
    r.election_timer = simkit::kInvalidEvent;
  }
  if (r.heartbeat_timer != simkit::kInvalidEvent) {
    sim_.cancel(r.heartbeat_timer);
    r.heartbeat_timer = simkit::kInvalidEvent;
  }
}

std::optional<NodeId> ControlPlane::leader() const {
  std::optional<NodeId> best;
  for (NodeId slot = 0; slot < replicas_.size(); ++slot) {
    const Replica& r = replicas_[slot];
    if (r.role != Replica::Role::kLeader || !live(slot)) continue;
    if (!best || r.term > replicas_[*best].term) best = slot;
  }
  return best;
}

Term ControlPlane::term() const {
  Term t = 0;
  for (const Replica& r : replicas_) t = std::max(t, r.term);
  return t;
}

void ControlPlane::await_leader(std::function<void(NodeId)> cb) {
  if (auto l = leader()) {
    cb(*l);
    return;
  }
  leader_waiters_.push_back(std::move(cb));
}

bool ControlPlane::append(const ControlEntry& entry, CommitCallback cb) {
  auto l = leader();
  if (!l) return false;
  Replica& r = replicas_[*l];
  r.log.push_back(LogRecord{r.term, entry});
  if (cb) {
    waiters_.push_back(Waiter{*l, r.term, static_cast<LogIndex>(r.log.size()),
                              sim_.now(), std::move(cb)});
  }
  broadcast_append(*l);
  advance_commit(*l);  // single-replica planes commit synchronously
  return true;
}

const CoordinatorView& ControlPlane::view(NodeId node) const {
  VDC_ASSERT(is_replica(node));
  return replicas_[node].view;
}

const CoordinatorView* ControlPlane::leader_view() const {
  auto l = leader();
  return l ? &replicas_[*l].view : nullptr;
}

const std::vector<LogRecord>& ControlPlane::log(NodeId node) const {
  VDC_ASSERT(is_replica(node));
  return replicas_[node].log;
}

bool ControlPlane::epoch_sequence_ok() const {
  for (const Replica& r : replicas_)
    if (!r.view.epoch_sequence_ok) return false;
  return true;
}

bool ControlPlane::logs_consistent() const {
  for (NodeId a = 0; a < replicas_.size(); ++a) {
    for (NodeId b = a + 1; b < replicas_.size(); ++b) {
      const LogIndex n = std::min(replicas_[a].commit, replicas_[b].commit);
      for (LogIndex i = 0; i < n; ++i)
        if (!(replicas_[a].log[i] == replicas_[b].log[i])) return false;
    }
  }
  return true;
}

bool ControlPlane::quorum_stranded() const {
  std::uint32_t alive = 0;
  std::uint32_t voters = 0;
  for (NodeId slot = 0; slot < replicas_.size(); ++slot) {
    if (!live(slot)) continue;
    ++alive;
    if (replicas_[slot].synced) ++voters;
  }
  return alive >= quorum() && voters < quorum();
}

void ControlPlane::reform() {
  VDC_ASSERT(running_);
  std::optional<NodeId> lead;
  for (NodeId slot = 0; slot < replicas_.size() && !lead; ++slot)
    if (live(slot)) lead = slot;
  VDC_ASSERT_MSG(lead.has_value(), "no live replica to re-form the plane");
  Term term = this->term();
  if (!leaders_per_term_.empty())
    term = std::max(term, leaders_per_term_.rbegin()->first);
  ++term;
  std::vector<Waiter> doomed;
  doomed.swap(waiters_);
  const std::size_t n = replicas_.size();
  for (NodeId slot = 0; slot < n; ++slot) {
    Replica& r = replicas_[slot];
    disarm(r);
    r = Replica{};
    r.synced = live(slot);
    r.term = term;
  }
  Replica& leader = replicas_[*lead];
  leader.role = Replica::Role::kLeader;
  leader.voted_for = static_cast<std::int64_t>(*lead);
  leader.next_index.assign(n, 1);
  leader.match_index.assign(n, 0);
  leader.log.push_back(LogRecord{term, ControlEntry{Kind::kNoop, 0, 0}});
  leaders_per_term_[term] = *lead;
  ++elections_;
  metrics().add("cp.elections", 1.0);
  metrics().set("cp.term", static_cast<double>(term));
  for (Waiter& w : doomed) w.cb(false);
  advance_commit(*lead);
  broadcast_append(*lead);
  schedule_heartbeat(*lead);
  for (NodeId slot = 0; slot < n; ++slot)
    if (slot != *lead) arm_election(slot);
  note_leader(*lead);
}

void ControlPlane::on_node_death(NodeId node) {
  if (!running_ || !is_replica(node)) return;
  Replica& r = replicas_[node];
  disarm(r);
  fail_waiters_for_slot(node);
  // Diskless: term, vote and log die with the host.
  r = Replica{};
  r.synced = false;
}

void ControlPlane::on_node_rejoin(NodeId node) {
  if (!running_ || !is_replica(node)) return;
  Replica& r = replicas_[node];
  disarm(r);
  r = Replica{};
  // Unsynced: abstains from voting/candidacy until it commits a record
  // of the current leader's term (see raft.hpp header). The leader's
  // regular heartbeats find and catch it up; no explicit join handshake.
  r.synced = false;
}

// --- elections --------------------------------------------------------------

void ControlPlane::arm_election(NodeId slot) {
  Replica& r = replicas_[slot];
  if (r.election_timer != simkit::kInvalidEvent) {
    sim_.cancel(r.election_timer);
    r.election_timer = simkit::kInvalidEvent;
  }
  if (!running_ || !live(slot) || !r.synced ||
      r.role == Replica::Role::kLeader)
    return;
  const SimTime timeout = rng_.uniform(kElectionTimeoutMin,
                                       kElectionTimeoutMax);
  r.election_timer = sim_.after(timeout, [this, slot] {
    replicas_[slot].election_timer = simkit::kInvalidEvent;
    on_election_timeout(slot);
  });
}

void ControlPlane::on_election_timeout(NodeId slot) {
  Replica& r = replicas_[slot];
  if (!running_ || !live(slot) || !r.synced ||
      r.role == Replica::Role::kLeader)
    return;
  r.role = Replica::Role::kCandidate;
  ++r.term;
  r.voted_for = static_cast<std::int64_t>(slot);
  r.votes = 1;
  metrics().set("cp.term", static_cast<double>(term()));
  if (r.votes >= quorum()) {
    become_leader(slot);
    return;
  }
  Frame f;
  f.type = Frame::Type::kRequestVote;
  f.term = r.term;
  f.last_log_index = static_cast<LogIndex>(r.log.size());
  f.last_log_term = r.log.empty() ? 0 : r.log.back().term;
  for (NodeId peer = 0; peer < replicas_.size(); ++peer)
    if (peer != slot) send(slot, peer, f);
  arm_election(slot);  // split vote -> retry with a fresh random timeout
}

void ControlPlane::step_down(NodeId slot, Term new_term) {
  Replica& r = replicas_[slot];
  if (new_term > r.term) {
    r.term = new_term;
    r.voted_for = -1;
    metrics().set("cp.term", static_cast<double>(term()));
  }
  if (r.role == Replica::Role::kLeader &&
      r.heartbeat_timer != simkit::kInvalidEvent) {
    sim_.cancel(r.heartbeat_timer);
    r.heartbeat_timer = simkit::kInvalidEvent;
  }
  r.role = Replica::Role::kFollower;
  r.votes = 0;
  arm_election(slot);
}

void ControlPlane::become_leader(NodeId slot) {
  Replica& r = replicas_[slot];
  r.role = Replica::Role::kLeader;
  r.votes = 0;
  if (r.election_timer != simkit::kInvalidEvent) {
    sim_.cancel(r.election_timer);
    r.election_timer = simkit::kInvalidEvent;
  }
  auto it = leaders_per_term_.find(r.term);
  if (it != leaders_per_term_.end() && it->second != slot) {
    election_safety_ok_ = false;  // two leaders in one term: raft is broken
  } else {
    leaders_per_term_[r.term] = slot;
  }
  ++elections_;
  metrics().add("cp.elections", 1.0);
  metrics().set("cp.term", static_cast<double>(term()));
  r.next_index.assign(replicas_.size(),
                      static_cast<LogIndex>(r.log.size()) + 1);
  r.match_index.assign(replicas_.size(), 0);
  // Records from dead terms that this leader's log lacks are doomed (they
  // will be overwritten by replication) — abort their waiters now so a
  // gated epoch commit fails fast instead of hanging.
  fail_impossible_waiters(slot);
  // Term-assertion noop: committing it commits every inherited record
  // below it (raft's current-term commit rule).
  r.log.push_back(LogRecord{r.term, ControlEntry{Kind::kNoop, 0, 0}});
  advance_commit(slot);
  broadcast_append(slot);
  schedule_heartbeat(slot);
  note_leader(slot);
}

void ControlPlane::note_leader(NodeId slot) {
  std::vector<std::function<void(NodeId)>> waiters;
  waiters.swap(leader_waiters_);
  for (auto& cb : waiters) cb(slot);
  if (on_leader_change_) on_leader_change_(slot, replicas_[slot].term);
}

// --- wire -------------------------------------------------------------------

void ControlPlane::send(NodeId from, NodeId to, Frame frame) {
  if (!running_ || !live(from)) return;
  frame.from = from;
  frame.to = to;
  std::vector<std::byte> buf = encode_frame(frame);
  frames_.add(1.0);
  wire_bytes_.add(static_cast<double>(buf.size()));
  SimTime latency = cluster_.fabric().link_latency();
  if (cluster_.fabric().faults_active()) {
    const net::HostId src = cluster_.node(from).host();
    const net::HostId dst = cluster_.node(to).host();
    const net::Judgement verdict = cluster_.fabric().faults().judge(src, dst);
    if (verdict.outcome == net::Delivery::kDropped) return;
    latency += verdict.extra_latency;
    if (verdict.outcome == net::Delivery::kCorrupted) {
      if (net::crc_catches_flip(frame_payload(buf), frame_crc(buf),
                                verdict.corrupt_bit)) {
        // Receiver detects the flip and discards; raft's heartbeat-driven
        // retransmission re-offers the suffix, so a flipped commit frame
        // costs latency, never safety.
        metrics().add("net.corrupt_frames", 1.0);
        return;
      }
    }
  }
  sim_.after(latency, [this, buf = std::move(buf)] {
    if (!running_) return;
    Frame decoded;
    if (!decode_frame(buf, decoded)) {
      metrics().add("cp.bad_frames", 1.0);
      return;
    }
    if (!is_replica(decoded.to) || !live(decoded.to)) return;
    deliver(decoded);
  });
}

void ControlPlane::deliver(const Frame& frame) {
  switch (frame.type) {
    case Frame::Type::kRequestVote: on_request_vote(frame.to, frame); break;
    case Frame::Type::kVote: on_vote(frame.to, frame); break;
    case Frame::Type::kAppend: on_append(frame.to, frame); break;
    case Frame::Type::kAck: on_ack(frame.to, frame); break;
  }
}

void ControlPlane::on_request_vote(NodeId slot, const Frame& f) {
  Replica& r = replicas_[slot];
  if (f.term > r.term) step_down(slot, f.term);
  const Term last_term = r.log.empty() ? 0 : r.log.back().term;
  const LogIndex last_index = static_cast<LogIndex>(r.log.size());
  const bool up_to_date =
      f.last_log_term > last_term ||
      (f.last_log_term == last_term && f.last_log_index >= last_index);
  // Unsynced replicas abstain: an amnesiac rejoiner must not grant a
  // vote its pre-crash incarnation may already have granted this term.
  const bool grant = r.synced && f.term == r.term && up_to_date &&
                     (r.voted_for < 0 ||
                      r.voted_for == static_cast<std::int64_t>(f.from));
  if (grant) {
    r.voted_for = static_cast<std::int64_t>(f.from);
    arm_election(slot);
  }
  Frame reply;
  reply.type = Frame::Type::kVote;
  reply.term = r.term;
  reply.granted = grant;
  send(slot, f.from, reply);
}

void ControlPlane::on_vote(NodeId slot, const Frame& f) {
  Replica& r = replicas_[slot];
  if (f.term > r.term) {
    step_down(slot, f.term);
    return;
  }
  if (r.role != Replica::Role::kCandidate || f.term != r.term || !f.granted)
    return;
  ++r.votes;
  if (r.votes >= quorum()) become_leader(slot);
}

void ControlPlane::on_append(NodeId slot, const Frame& f) {
  Replica& r = replicas_[slot];
  Frame ack;
  ack.type = Frame::Type::kAck;
  if (f.term < r.term) {
    ack.term = r.term;
    ack.success = false;
    send(slot, f.from, ack);
    return;
  }
  if (f.term > r.term || r.role != Replica::Role::kFollower)
    step_down(slot, f.term);
  // Fencing: a sender the cluster has declared dead and fenced (the
  // deposed-leader-behind-a-partition) is rejected outright — its late
  // epoch commit cannot reach quorum through us — and does NOT reset the
  // election timer, so a real election can depose it.
  if (cluster_.is_fenced(f.from)) {
    metrics().add("cp.fenced_rejects", 1.0);
    ack.term = r.term;
    ack.success = false;
    send(slot, f.from, ack);
    return;
  }
  arm_election(slot);  // valid beat from the current leader
  const LogIndex local = static_cast<LogIndex>(r.log.size());
  if (f.prev_index > local) {
    ack.success = false;
    ack.match_index = local;  // hint: we end here, back up to our tail
  } else if (f.prev_index >= 1 && r.log[f.prev_index - 1].term != f.prev_term) {
    ack.success = false;
    ack.match_index = f.prev_index - 1;  // hint: conflict at prev_index
  } else {
    LogIndex idx = f.prev_index;
    for (const LogRecord& rec : f.entries) {
      ++idx;
      if (idx <= r.log.size()) {
        if (r.log[idx - 1].term == rec.term) continue;  // identical record
        VDC_ASSERT(idx > r.commit);  // committed records never conflict
        r.log.resize(idx - 1);
        r.log.push_back(rec);
      } else {
        r.log.push_back(rec);
      }
    }
    ack.success = true;
    ack.match_index = f.prev_index + static_cast<LogIndex>(f.entries.size());
    const LogIndex commit = std::min(f.leader_commit, ack.match_index);
    if (commit > r.commit) {
      r.commit = commit;
      apply_committed(slot);
    }
    if (!r.synced && r.commit >= 1 && r.log[r.commit - 1].term == f.term) {
      // Caught up: we hold a committed record of the leader's term (its
      // noop at the latest). Voting rights restored.
      r.synced = true;
      arm_election(slot);
    }
  }
  ack.term = r.term;
  send(slot, f.from, ack);
}

void ControlPlane::on_ack(NodeId slot, const Frame& f) {
  Replica& r = replicas_[slot];
  if (f.term > r.term) {
    step_down(slot, f.term);
    return;
  }
  if (r.role != Replica::Role::kLeader || f.term != r.term) return;
  const NodeId peer = f.from;
  if (f.success) {
    if (f.match_index > r.match_index[peer]) {
      r.match_index[peer] = f.match_index;
      advance_commit(slot);
    }
    r.next_index[peer] = r.match_index[peer] + 1;
    if (r.next_index[peer] <= r.log.size()) send_append(slot, peer);
  } else {
    // Back off along the follower's hint; the retry rides the next
    // heartbeat rather than an immediate resend, so a persistently
    // rejecting peer (e.g. one that fences us) costs one frame per beat,
    // not an ack-storm.
    r.next_index[peer] = std::min<LogIndex>(
        f.match_index + 1, static_cast<LogIndex>(r.log.size()) + 1);
    if (r.next_index[peer] < 1) r.next_index[peer] = 1;
  }
}

void ControlPlane::send_append(NodeId leader_slot, NodeId peer) {
  Replica& r = replicas_[leader_slot];
  LogIndex next = std::max<LogIndex>(1, r.next_index[peer]);
  next = std::min<LogIndex>(next, static_cast<LogIndex>(r.log.size()) + 1);
  Frame f;
  f.type = Frame::Type::kAppend;
  f.term = r.term;
  f.prev_index = next - 1;
  f.prev_term = f.prev_index >= 1 ? r.log[f.prev_index - 1].term : 0;
  f.leader_commit = r.commit;
  const std::size_t avail = r.log.size() - (next - 1);
  const std::size_t count = std::min(kMaxBatch, avail);
  f.entries.assign(r.log.begin() + static_cast<std::ptrdiff_t>(next - 1),
                   r.log.begin() + static_cast<std::ptrdiff_t>(next - 1 + count));
  send(leader_slot, peer, std::move(f));
}

void ControlPlane::broadcast_append(NodeId leader_slot) {
  for (NodeId peer = 0; peer < replicas_.size(); ++peer)
    if (peer != leader_slot) send_append(leader_slot, peer);
}

void ControlPlane::schedule_heartbeat(NodeId slot) {
  Replica& r = replicas_[slot];
  if (r.heartbeat_timer != simkit::kInvalidEvent) {
    sim_.cancel(r.heartbeat_timer);
    r.heartbeat_timer = simkit::kInvalidEvent;
  }
  if (!running_) return;
  r.heartbeat_timer = sim_.after(kHeartbeatPeriod, [this, slot] {
    Replica& rep = replicas_[slot];
    rep.heartbeat_timer = simkit::kInvalidEvent;
    if (!running_ || rep.role != Replica::Role::kLeader || !live(slot)) return;
    broadcast_append(slot);
    schedule_heartbeat(slot);
  });
}

// --- commit -----------------------------------------------------------------

void ControlPlane::advance_commit(NodeId leader_slot) {
  Replica& r = replicas_[leader_slot];
  LogIndex advanced = 0;
  for (LogIndex n = static_cast<LogIndex>(r.log.size()); n > r.commit; --n) {
    if (r.log[n - 1].term != r.term) break;  // only current-term records
    std::uint32_t count = 1;  // self
    for (NodeId peer = 0; peer < replicas_.size(); ++peer) {
      if (peer == leader_slot) continue;
      if (r.match_index[peer] >= n) ++count;
    }
    if (count >= quorum()) {
      advanced = n;
      break;
    }
  }
  if (advanced == 0) return;
  r.commit = advanced;
  auto it = commits_per_term_.find(r.term);
  if (it == commits_per_term_.end()) {
    commits_per_term_[r.term] = leader_slot;
  } else if (it->second != leader_slot) {
    election_safety_ok_ = false;  // two leaders advanced commit in one term
  }
  metrics().set("cp.log.committed", static_cast<double>(r.commit));
  apply_committed(leader_slot);
}

void ControlPlane::apply_committed(NodeId slot) {
  Replica& r = replicas_[slot];
  while (r.applied < r.commit) {
    const LogRecord rec = r.log[r.applied];
    ++r.applied;
    r.view.apply(rec.entry);
    resolve_committed_waiters(rec.term, r.applied);
  }
}

void ControlPlane::resolve_committed_waiters(Term term, LogIndex index) {
  std::vector<Waiter> hit;
  for (std::size_t i = 0; i < waiters_.size();) {
    if (waiters_[i].term == term && waiters_[i].index == index) {
      hit.push_back(std::move(waiters_[i]));
      waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (Waiter& w : hit) {
    metrics().observe("cp.commit_latency_s", sim_.now() - w.appended);
    w.cb(true);
  }
}

void ControlPlane::fail_waiters_for_slot(NodeId slot) {
  std::vector<Waiter> hit;
  for (std::size_t i = 0; i < waiters_.size();) {
    if (waiters_[i].slot == slot) {
      hit.push_back(std::move(waiters_[i]));
      waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (Waiter& w : hit) w.cb(false);
}

void ControlPlane::fail_impossible_waiters(NodeId new_leader_slot) {
  Replica& r = replicas_[new_leader_slot];
  std::vector<Waiter> hit;
  for (std::size_t i = 0; i < waiters_.size();) {
    const Waiter& w = waiters_[i];
    const bool doomed = w.index > r.log.size() ||
                        r.log[w.index - 1].term != w.term;
    if (doomed) {
      hit.push_back(std::move(waiters_[i]));
      waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (Waiter& w : hit) w.cb(false);
}

}  // namespace vdc::controlplane
