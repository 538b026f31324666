package proto

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lmbalance/internal/rng"
	"lmbalance/internal/wire"
)

// sends returns the frames among effs, in order.
func sends(effs []Effect) []wire.Msg {
	var out []wire.Msg
	for _, e := range effs {
		if e.Kind == Send {
			out = append(out, e.Msg)
		}
	}
	return out
}

// find returns the first effect of the given kind, or nil.
func find(effs []Effect, k Kind) *Effect {
	for i := range effs {
		if effs[i].Kind == k {
			return &effs[i]
		}
	}
	return nil
}

// collect drives initiator m through a whole collect phase in which
// every partner acks with the given load, and returns the effects of
// the final ack (the resolve).
func collect(m *Machine, partners, loads []int) []Effect {
	effs := m.Initiate(partners, 1, nil)
	for i, p := range partners {
		effs = m.Handle(wire.Msg{Kind: wire.FreezeAck, From: p, Seq: m.Seq(), Load: loads[i]}, effs[:0])
	}
	return effs
}

// TestRemainderUnbiased is the one regression for the remainder-rotation
// fix: the initiator is participant 0 of every split it computes, so
// handing the total%k extras to fixed indices would let it keep one
// surplus packet per operation. Each row deals the same split many
// times and requires every participant to collect its fair share of the
// extras; the last row is the end-to-end symptom — a sole initiator's
// long-run mean load must match its partners'.
func TestRemainderUnbiased(t *testing.T) {
	cases := []struct {
		name  string
		own   int
		loads []int
	}{
		{"rem 1 of 4", 6, []int{5, 5, 5}},
		{"rem 3 of 4", 5, []int{6, 6, 6}},
		{"rem 2 of 3", 0, []int{4, 4}},
		{"rem 1 of 2", 9, []int{0}},
		{"rem 0 of 4", 8, []int{2, 6, 4}},
		// A late transfer into an expired freeze can leave a partner's
		// load below zero; the split floors a negative total.
		{"negative total, rem 3 of 4", 0, []int{-2, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const trials = 4000
			k := len(tc.loads) + 1
			total := tc.own
			partners := make([]int, len(tc.loads))
			for i, l := range tc.loads {
				partners[i] = i + 1
				total += l
			}
			base, rem := total/k, total%k
			if rem < 0 {
				base, rem = base-1, rem+k
			}
			r := rng.New(99)
			m := New(0, 1.2, r)
			extras := make([]int, k)
			for trial := 0; trial < trials; trial++ {
				m.load = tc.own
				effs := collect(m, partners, tc.loads)
				res := find(effs, Resolved)
				if res == nil || res.Partners != len(partners) || effs[0].Kind != Resolved {
					t.Fatalf("no leading Resolved: %+v", effs)
				}
				shares := []int{res.Load}
				for i, tr := range sends(effs) {
					if tr.Kind != wire.Transfer || effs[1+i].To != partners[i] {
						t.Fatalf("effect %d is not partner %d's transfer: %+v", 1+i, partners[i], effs[1+i])
					}
					shares = append(shares, tc.loads[i]+tr.Amount)
				}
				sum := 0
				for i, s := range shares {
					sum += s
					switch s {
					case base + 1:
						extras[i]++
					case base:
					default:
						t.Fatalf("participant %d share %d, want %d or %d", i, s, base, base+1)
					}
				}
				if sum != total {
					t.Fatalf("shares %v sum to %d, want %d", shares, sum, total)
				}
			}
			// rem extras per trial, uniform over k participants; allow ±5σ.
			want := float64(trials*rem) / float64(k)
			for i, e := range extras {
				if d := float64(e) - want; d > 140 || d < -140 {
					t.Fatalf("participant %d captured %d extras (want ≈%.0f): %v", i, e, want, extras)
				}
			}
			if rem == 0 && r.Uint64() != rng.New(99).Uint64() {
				t.Fatal("an even split drew a remainder offset it did not need")
			}
		})
	}

	t.Run("sole initiator mean load", func(t *testing.T) {
		// Node 0 is the only node whose load ever changes by itself, hence
		// the only initiator. The biased rule left it ≈ +0.5 above its
		// partners at the end of a run; the rotated snake leaves ≈ 0.
		const runs, steps = 300, 300
		var diff float64
		for run := 0; run < runs; run++ {
			r := rng.New(1000 + uint64(run))
			m := New(0, 1.1, r)
			loads := []int{0, 0}
			partners := []int{1, 2}
			for s := 0; s < steps; s++ {
				if r.Bernoulli(0.6) {
					m.Add(1)
				}
				if r.Bernoulli(0.6) && m.Load() > 0 {
					m.Add(-1)
				}
				if !m.Trigger() {
					continue
				}
				for i, tr := range sends(collect(m, partners, loads)) {
					loads[i] += tr.Amount
				}
			}
			diff += float64(m.Load()) - float64(loads[0]+loads[1])/2
		}
		if diff /= runs; diff > 0.2 || diff < -0.2 {
			t.Fatalf("initiator mean final load deviates from partners by %+.3f", diff)
		}
	})
}

// TestFreezeIdentity is the one regression for the freeze-expiry race: a
// partner that self-releases can be re-frozen by a new protocol before
// the old initiator's late Release or Transfer arrives. Those frames
// carry the old (initiator, epoch) identity, so they must not end the
// new freeze — but a Transfer's delta must apply regardless, or
// conservation breaks. Every row starts from a node that was frozen by
// node 1 (seq 5), expired, and is now frozen by node 2 (seq 9).
func TestFreezeIdentity(t *testing.T) {
	cases := []struct {
		name       string
		msg        wire.Msg
		wantLoad   int
		wantFrozen bool
		wantEffect Reason // of the Unfroze effect; 0 = none
		wantBase   int    // trigger base lOld afterwards
	}{
		{"stale release", wire.Msg{Kind: wire.Release, From: 1, Seq: 5}, 10, true, 0, 3},
		{"stale transfer applies but holds the freeze", wire.Msg{Kind: wire.Transfer, From: 1, Seq: 5, Amount: 7}, 17, true, 0, 3},
		{"right peer, wrong epoch", wire.Msg{Kind: wire.Release, From: 2, Seq: 8}, 10, true, 0, 3},
		{"wrong peer, right epoch", wire.Msg{Kind: wire.Transfer, From: 1, Seq: 9, Amount: -4}, 6, true, 0, 3},
		{"own release", wire.Msg{Kind: wire.Release, From: 2, Seq: 9}, 10, false, ByRelease, 3},
		{"own transfer ends the freeze and re-bases the trigger", wire.Msg{Kind: wire.Transfer, From: 2, Seq: 9, Amount: -2}, 8, false, ByTransfer, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(0, 1.2, rng.New(9))
			m.load, m.lOld = 10, 3
			effs := m.Handle(wire.Msg{Kind: wire.FreezeReq, From: 1, Seq: 5, Op: 0xa}, nil)
			if !m.Frozen() || len(effs) != 2 || effs[0].Kind != Froze ||
				effs[1].Msg.Kind != wire.FreezeAck || effs[1].Msg.Load != 10 || effs[1].To != 1 {
				t.Fatalf("freeze not taken and acked: %+v", effs)
			}
			if busy := sends(m.Handle(wire.Msg{Kind: wire.FreezeReq, From: 2, Seq: 9}, nil)); len(busy) != 1 || busy[0].Kind != wire.FreezeBusy {
				t.Fatalf("frozen node did not refuse a second freeze: %+v", busy)
			}
			effs = m.FreezeExpired(effs[:0])
			if m.Frozen() || len(effs) != 1 || effs[0].Reason != ByExpiry || effs[0].Peer != 1 || effs[0].Op != 0xa {
				t.Fatalf("expiry did not release node 1's freeze: %+v", effs)
			}
			if effs = m.FreezeExpired(effs[:0]); len(effs) != 0 {
				t.Fatalf("expiry of a free node had effects: %+v", effs)
			}
			m.Handle(wire.Msg{Kind: wire.FreezeReq, From: 2, Seq: 9, Op: 0xb}, nil)

			effs = m.Handle(tc.msg, effs[:0])
			if m.Load() != tc.wantLoad {
				t.Errorf("load %d, want %d", m.Load(), tc.wantLoad)
			}
			if m.Frozen() != tc.wantFrozen {
				t.Errorf("frozen = %v, want %v", m.Frozen(), tc.wantFrozen)
			}
			if m.lOld != tc.wantBase {
				t.Errorf("trigger base %d, want %d", m.lOld, tc.wantBase)
			}
			switch un := find(effs, Unfroze); {
			case tc.wantEffect == 0 && len(effs) != 0:
				t.Errorf("unexpected effects %+v", effs)
			case tc.wantEffect != 0 && (un == nil || un.Reason != tc.wantEffect || un.Peer != 2 || un.Op != 0xb):
				t.Errorf("effects %+v, want Unfroze(%d) of node 2's freeze", effs, tc.wantEffect)
			}
		})
	}

	t.Run("transfer to a free node re-bases the trigger", func(t *testing.T) {
		m := New(0, 1.2, rng.New(9))
		m.load, m.lOld = 10, 3
		if effs := m.Handle(wire.Msg{Kind: wire.Transfer, From: 1, Seq: 5, Amount: 2}, nil); len(effs) != 0 {
			t.Fatalf("unexpected effects %+v", effs)
		}
		if m.Load() != 12 || m.lOld != 12 {
			t.Fatalf("load %d base %d, want 12 12", m.Load(), m.lOld)
		}
	})
}

// TestStaleRepliesOneRule pins the single stale-epoch rule the two
// forked copies had drifted on: any reply that is not for the operation
// in flight — ack or busy alike — is remembered (sticky until the next
// Initiate) and surfaces as Aborted.Stale on a timeout; a stale ack is
// additionally answered with a Release echoing its own epoch. A timeout
// with a current ack in hand does not abort at all: the collect
// concludes over that one partner.
func TestStaleRepliesOneRule(t *testing.T) {
	// Epoch 1 is abandoned (which bumps to 2); the operation under test
	// runs in epoch 3.
	stale := func(k wire.Kind) wire.Msg { return wire.Msg{Kind: k, From: 3, Seq: 1, Op: 0xdead, Load: 50} }
	ack1 := wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: 3, Load: 4}
	cases := []struct {
		name      string
		frames    []wire.Msg // delivered while the epoch-3 operation is in flight
		wantStale bool       // of the Aborted a timeout produces
		wantAcks  int        // > 0: the timeout resolves over this many partners instead
	}{
		{"no stale reply", nil, false, 0},
		{"stale ack", []wire.Msg{stale(wire.FreezeAck)}, true, 0},
		{"stale busy", []wire.Msg{stale(wire.FreezeBusy)}, true, 0},
		{"stale busy then stale ack", []wire.Msg{stale(wire.FreezeBusy), stale(wire.FreezeAck)}, true, 0},
		{"stale ack stays seen across a current ack", []wire.Msg{stale(wire.FreezeAck), ack1}, false, 1},
		{"duplicated current ack counts once", []wire.Msg{ack1, ack1}, false, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(0, 1.2, rng.New(5))
			// A stale reply landing while idle must not leak into the
			// next operation's attribution.
			m.Initiate([]int{3}, 7, nil)
			m.ReplyTimeout(nil)
			if rel := sends(m.Handle(stale(wire.FreezeAck), nil)); len(rel) != 1 ||
				rel[0].Kind != wire.Release || rel[0].Seq != 1 || rel[0].Op != 0xdead {
				t.Fatalf("idle stale ack not released with its own epoch: %+v", rel)
			}
			m.Initiate([]int{1, 2}, 8, nil)
			for _, f := range tc.frames {
				effs := m.Handle(f, nil)
				if f.Seq == 1 && f.Kind == wire.FreezeAck {
					if rel := sends(effs); len(rel) != 1 || rel[0].Kind != wire.Release || rel[0].Seq != 1 {
						t.Fatalf("stale ack not released: %+v", effs)
					}
				} else if len(effs) != 0 {
					t.Fatalf("frame %+v had effects %+v", f, effs)
				}
			}
			if !m.Inflight() {
				t.Fatal("operation ended early")
			}
			effs := m.ReplyTimeout(nil)
			if m.Seq() != 4 || m.Inflight() {
				t.Errorf("timeout left seq %d inflight %v", m.Seq(), m.Inflight())
			}
			if tc.wantAcks > 0 {
				res, out := find(effs, Resolved), sends(effs)
				if res == nil || effs[0].Kind != Resolved || res.Reason != Timeout ||
					res.Partners != tc.wantAcks || res.Op != 8 || res.Seq != 3 {
					t.Fatalf("no leading Resolved(timeout, partners=%d) for op 8: %+v", tc.wantAcks, effs)
				}
				if len(out) != 1 || out[0].Kind != wire.Transfer || effs[1].To != 1 || out[0].Seq != 3 || out[0].Op != 8 {
					t.Fatalf("want exactly the acker's transfer after Resolved: %+v", effs)
				}
				return
			}
			ab := find(effs, Aborted)
			if ab == nil || ab.Reason != Timeout || ab.Op != 8 || ab.Seq != 3 || effs[0].Kind != Aborted {
				t.Fatalf("no leading Aborted(timeout) for op 8: %+v", effs)
			}
			if ab.Stale != tc.wantStale {
				t.Errorf("Aborted.Stale = %v, want %v", ab.Stale, tc.wantStale)
			}
			acked := m.ackedFrom
			rel := sends(effs)
			if len(rel) != len(acked) || ab.Partners != len(acked) {
				t.Fatalf("%d releases for %d acked partners: %+v", len(rel), len(acked), effs)
			}
			for _, r := range rel {
				if r.Kind != wire.Release || r.Seq != 3 || r.Op != 8 {
					t.Errorf("abandon released with %+v, want the abandoned epoch 3 op 8", r)
				}
			}
		})
	}
}

// TestCollectConcludes pins the one collision rule: however a collect
// ends — last reply in, or the reply timeout — the initiator balances ±1
// over itself and exactly the k partners that acked when k ≥ 1 and
// f < k+1, and aborts otherwise. Every ack/busy/silent pattern of
// δ ∈ {1,2,4} partners is played; a pattern with a silent partner can
// only end by timeout, one without ends on its last reply (and a timeout
// afterwards is a no-op).
func TestCollectConcludes(t *testing.T) {
	const ack, busy, silent = 0, 1, 2
	const own = 17
	for _, f := range []float64{1.2, 2.5} {
		for _, delta := range []int{1, 2, 4} {
			patterns := 1
			for i := 0; i < delta; i++ {
				patterns *= 3
			}
			for code := 0; code < patterns; code++ {
				pattern := make([]int, delta)
				partners := make([]int, delta)
				loads := make([]int, delta)
				name := ""
				k, quiet := 0, 0
				for i, c := 0, code; i < delta; i, c = i+1, c/3 {
					pattern[i], partners[i], loads[i] = c%3, i+1, 5*i+c%2
					name += string("abs"[c%3])
					switch pattern[i] {
					case ack:
						k++
					case silent:
						quiet++
					}
				}
				t.Run(fmt.Sprintf("f=%v/delta=%d/%s", f, delta, name), func(t *testing.T) {
					m := New(0, f, rng.New(uint64(code)+1))
					m.load = own
					effs := m.Initiate(partners, 9, nil)
					if reqs := sends(effs); len(reqs) != delta {
						t.Fatalf("%d freeze requests for %d partners", len(reqs), delta)
					}
					seq := m.Seq()
					effs = effs[:0]
					for i, p := range partners {
						if len(effs) != 0 {
							t.Fatalf("collect concluded before partner %d replied: %+v", p, effs)
						}
						switch pattern[i] {
						case ack:
							effs = m.Handle(wire.Msg{Kind: wire.FreezeAck, From: p, Seq: seq, Op: 9, Load: loads[i]}, effs)
						case busy:
							effs = m.Handle(wire.Msg{Kind: wire.FreezeBusy, From: p, Seq: seq, Op: 9}, effs)
						}
					}
					byTimeout := quiet > 0
					if byTimeout {
						if len(effs) != 0 || !m.Inflight() {
							t.Fatalf("collect concluded with %d replies missing: %+v", quiet, effs)
						}
						effs = m.ReplyTimeout(effs)
					} else if late := m.ReplyTimeout(nil); len(late) != 0 {
						t.Fatalf("timeout after the collect concluded had effects: %+v", late)
					}
					if m.Inflight() || len(effs) == 0 {
						t.Fatalf("collect did not conclude: %+v", effs)
					}
					out := sends(effs)
					if len(out) != k || len(effs) != k+1 {
						t.Fatalf("%d frames for %d ackers: %+v", len(out), k, effs)
					}
					var ackers []int
					for i, p := range partners {
						if pattern[i] == ack {
							ackers = append(ackers, i)
							if effs[len(ackers)].To != p {
								t.Fatalf("frame %d goes to %d, want acker %d", len(ackers), effs[len(ackers)].To, p)
							}
						}
					}
					head := effs[0]
					if head.Partners != k || head.Op != 9 || head.Seq != seq {
						t.Fatalf("leading effect %+v, want partners=%d op=9 seq=%d", head, k, seq)
					}
					if wantResolve := k >= 1 && f < float64(k+1); wantResolve {
						if head.Kind != Resolved || (head.Reason == Timeout) != byTimeout {
							t.Fatalf("want Resolved(by timeout=%v), got %+v", byTimeout, head)
						}
						lo, hi, sum, total := head.Load, head.Load, head.Load, own
						for j, tr := range out {
							if tr.Kind != wire.Transfer || tr.Seq != seq || tr.Op != 9 {
								t.Fatalf("frame %+v on resolve, want the operation's Transfer", tr)
							}
							share := loads[ackers[j]] + tr.Amount
							lo, hi, sum, total = min(lo, share), max(hi, share), sum+share, total+loads[ackers[j]]
						}
						if hi-lo > 1 || sum != total || m.Load() != head.Load {
							t.Fatalf("shares spread %d, sum %d of %d, load %d vs %d", hi-lo, sum, total, m.Load(), head.Load)
						}
					} else {
						wantWhy := Busy
						if byTimeout {
							wantWhy = Timeout
						}
						if head.Kind != Aborted || head.Reason != wantWhy || m.Load() != own {
							t.Fatalf("want Aborted(%d) with the load untouched, got %+v load %d", wantWhy, head, m.Load())
						}
						for _, rel := range out {
							if rel.Kind != wire.Release || rel.Seq != seq {
								t.Fatalf("frame %+v on abort, want the operation's Release", rel)
							}
						}
					}
					// Whoever was silent may still answer: a late ack is released
					// under its own epoch, a late busy is dropped.
					for i, p := range partners {
						if pattern[i] != silent {
							continue
						}
						if late := m.Handle(wire.Msg{Kind: wire.FreezeBusy, From: p, Seq: seq, Op: 9}, nil); len(late) != 0 {
							t.Fatalf("late busy had effects: %+v", late)
						}
						late := sends(m.Handle(wire.Msg{Kind: wire.FreezeAck, From: p, Seq: seq, Op: 9, Load: 1}, nil))
						if len(late) != 1 || late[0].Kind != wire.Release || late[0].Seq != seq || late[0].Op != 9 {
							t.Fatalf("late ack of a concluded operation not released: %+v", late)
						}
					}
				})
			}
		}
	}
}

// TestBackoffOneWindow: a busy abort and a timeout abort disarm the
// trigger for the same randomized window, 1..BackoffSteps steps.
func TestBackoffOneWindow(t *testing.T) {
	abort := map[string]func(m *Machine){
		"busy": func(m *Machine) {
			m.Initiate([]int{1}, 1, nil)
			m.Handle(wire.Msg{Kind: wire.FreezeBusy, From: 1, Seq: m.Seq()}, nil)
		},
		"timeout": func(m *Machine) {
			m.Initiate([]int{1}, 1, nil)
			m.ReplyTimeout(nil)
		},
	}
	for name, do := range abort {
		t.Run(name, func(t *testing.T) {
			m := New(0, 1.2, rng.New(3))
			seen := make([]int, BackoffSteps+2)
			for trial := 0; trial < 400; trial++ {
				m.load, m.lOld = 10, 1 // the trigger condition holds throughout
				do(m)
				if m.Inflight() {
					t.Fatal("abort left the operation in flight")
				}
				wait := 0
				for !m.Trigger() {
					if wait++; wait > BackoffSteps {
						t.Fatalf("trigger still disarmed after %d steps", wait)
					}
				}
				seen[wait]++
			}
			if seen[0] != 0 {
				t.Fatalf("%d aborts re-armed with no backoff at all", seen[0])
			}
			for w := 1; w <= BackoffSteps; w++ {
				if seen[w] == 0 {
					t.Fatalf("backoff of %d steps never drawn: %v", w, seen)
				}
			}
		})
	}
}

// TestCrashForgets: a fail-stop wipes both roles without a frame, makes
// the lost operation's replies stale, and keeps the load.
func TestCrashForgets(t *testing.T) {
	m := New(0, 1.2, rng.New(1))
	m.load = 12
	m.Initiate([]int{1, 2}, 4, nil)
	m.Handle(wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: m.Seq(), Load: 2}, nil)
	lost := m.Seq()
	m.Crash()
	if m.Engaged() || m.Load() != 12 || m.Seq() == lost {
		t.Fatalf("after crash: engaged=%v load=%d seq=%d", m.Engaged(), m.Load(), m.Seq())
	}
	if effs := m.ReplyTimeout(nil); len(effs) != 0 {
		t.Fatalf("timeout of a forgotten operation had effects: %+v", effs)
	}
	if rel := sends(m.Handle(wire.Msg{Kind: wire.FreezeAck, From: 2, Seq: lost, Load: 9}, nil)); len(rel) != 1 || rel[0].Kind != wire.Release {
		t.Fatalf("reply to the lost operation not released: %+v", rel)
	}
	if m.Trigger() {
		t.Fatal("trigger fired on the recovered load without a change")
	}
}

// TestResumePositions: Resume leaves a machine in either role unengaged
// at the given load and epoch — the next operation is stamped seq+1 and
// balances from that load — with no frame and no pending backoff.
func TestResumePositions(t *testing.T) {
	for _, engage := range []func(m *Machine){
		func(m *Machine) { m.Initiate([]int{1}, 4, nil) },
		func(m *Machine) { m.Handle(wire.Msg{Kind: wire.FreezeReq, From: 2, Seq: 9, Op: 7}, nil) },
	} {
		m := New(0, 1.2, rng.New(1))
		engage(m)
		m.Resume(10, 41)
		if m.Engaged() || m.Load() != 10 || m.Seq() != 41 || m.Trigger() {
			t.Fatalf("after Resume: engaged=%v load=%d seq=%d trigger=%v", m.Engaged(), m.Load(), m.Seq(), m.Trigger())
		}
		if req := sends(m.Initiate([]int{1}, 5, nil)); len(req) != 1 || req[0].Seq != 42 {
			t.Fatalf("initiate after Resume sent %+v, want one FreezeReq at epoch 42", req)
		}
		effs := m.Handle(wire.Msg{Kind: wire.FreezeAck, From: 1, Seq: 42, Op: 5, Load: 4}, nil)
		if e := find(effs, Resolved); e == nil || e.Load != 7 {
			t.Fatalf("balance after Resume: %+v, want a share of 7", effs)
		}
	}
}

// TestPurity is the package's import guard: the handshake must stay a
// pure state machine, so its non-test files may import only rng, wire
// and standard-library packages that cannot reach a clock, a goroutine
// primitive, the network or the process environment.
func TestPurity(t *testing.T) {
	allowed := map[string]bool{"lmbalance/internal/rng": true, "lmbalance/internal/wire": true}
	banned := map[string]bool{"time": true, "sync": true, "net": true, "os": true, "runtime": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			root, _, _ := strings.Cut(path, "/")
			std := !strings.Contains(root, ".") && root != "lmbalance"
			if allowed[path] || (std && !banned[root]) {
				continue
			}
			t.Errorf("%s imports %q: proto may import only %v and clock-free stdlib", name, path, allowed)
		}
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}

// TestSteadyStateAllocs: once its buffers have grown, a whole round —
// initiate, freeze, ack, resolve, transfer — allocates nothing. The
// cluster node runs this path per balancing operation.
func TestSteadyStateAllocs(t *testing.T) {
	r := rng.New(2)
	ms := []*Machine{New(0, 1.2, r), New(1, 1.2, r), New(2, 1.2, r)}
	partners := []int{1, 2}
	var reqs, reply, resolve, scratch []Effect
	round := func() {
		ms[0].Add(3)
		reqs = ms[0].Initiate(partners, 9, reqs[:0])
		for _, req := range reqs {
			reply = ms[req.To].Handle(req.Msg, reply[:0])
			resolve = ms[0].Handle(reply[len(reply)-1].Msg, resolve[:0])
		}
		for _, e := range resolve[1:] { // [0] is Resolved; the transfers follow
			scratch = ms[e.To].Handle(e.Msg, scratch[:0])
		}
	}
	round()
	if ms[0].Engaged() || ms[1].Engaged() || ms[2].Engaged() {
		t.Fatal("round did not complete")
	}
	if got := ms[0].Load() + ms[1].Load() + ms[2].Load(); got != 3 {
		t.Fatalf("round lost load: total %d, want 3", got)
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state round allocates %v times, want 0", n)
	}
}
