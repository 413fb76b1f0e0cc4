//go:build faultinject

package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Enabled reports whether the binary was built with the faultinject
// tag.
const Enabled = true

// ErrInjected is the root of every injected error; match the query
// error with errors.Is to distinguish injected faults from organic
// failures.
var ErrInjected = errors.New("faultinject: injected fault")

// Action is what an armed point does when its schedule triggers.
// Exactly one of the fields should be set; Sleep may combine with
// either to model a slow failure.
type Action struct {
	// Err, when non-nil, is wrapped with ErrInjected context and
	// returned from Fire — the fault propagates as an ordinary error.
	Err error
	// Panic, when non-empty, panics with this message — the fault
	// exercises the panic-containment layer.
	Panic string
	// Sleep delays Fire before it acts — the fault models a stall, which
	// deadlines and wall-time budgets must catch.
	Sleep time.Duration
}

// rule is one armed point's deterministic schedule: skip the first
// `after` calls, then trigger every `every` calls, at most `times`
// times. Counting is atomic so concurrent queries share the schedule
// race-free (the trigger totals stay exact even when the interleaving
// varies).
type rule struct {
	after  uint64
	every  uint64
	times  uint64
	action Action
	calls  atomic.Uint64
	fired  atomic.Uint64
}

// armed is set while any rule is: Fire, on every hot-path site, then
// skips the lock when nothing is armed.
var (
	mu    sync.RWMutex
	rules = map[string]*rule{}
	armed atomic.Bool
)

// Set arms point: skip the first `after` Fire calls, then trigger every
// `every`-th call (every <= 1 means every call), at most `times` times
// (0 = unlimited).
func Set(point string, after, every, times uint64, action Action) {
	if every == 0 {
		every = 1
	}
	mu.Lock()
	rules[point] = &rule{after: after, every: every, times: times, action: action}
	armed.Store(true)
	mu.Unlock()
}

// Schedule arms every named point with an error-returning schedule
// derived deterministically from seed: pseudo-random after/every phases
// so repeated chaos runs with one seed reproduce the same trigger
// pattern relative to each point's call count.
func Schedule(seed int64, points ...string) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range points {
		Set(p, uint64(rng.Intn(16)), uint64(1+rng.Intn(8)), 0, Action{Err: ErrInjected})
	}
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	rules = map[string]*rule{}
	armed.Store(false)
	mu.Unlock()
}

// Fired reports how many times point's rule has triggered.
func Fired(point string) uint64 {
	mu.RLock()
	r := rules[point]
	mu.RUnlock()
	if r == nil {
		return 0
	}
	return r.fired.Load()
}

// Fire consults point's schedule: nil when unarmed or the schedule does
// not trigger on this call; otherwise the rule's action runs (sleep,
// panic, or error return).
func Fire(point string) error {
	if !armed.Load() {
		return nil
	}
	mu.RLock()
	r := rules[point]
	mu.RUnlock()
	if r == nil {
		return nil
	}
	n := r.calls.Add(1)
	if n <= r.after {
		return nil
	}
	if (n-r.after-1)%r.every != 0 {
		return nil
	}
	if r.times > 0 {
		// CAS so fired counts actual triggers exactly, even when
		// concurrent calls race past the cap.
		for {
			f := r.fired.Load()
			if f >= r.times {
				return nil
			}
			if r.fired.CompareAndSwap(f, f+1) {
				break
			}
		}
	} else {
		r.fired.Add(1)
	}
	if r.action.Sleep > 0 {
		time.Sleep(r.action.Sleep)
	}
	if r.action.Panic != "" {
		panic(fmt.Sprintf("faultinject: %s at %s", r.action.Panic, point))
	}
	if r.action.Err != nil {
		if errors.Is(r.action.Err, ErrInjected) {
			return fmt.Errorf("%w at %s", r.action.Err, point)
		}
		return fmt.Errorf("%w at %s: %w", ErrInjected, point, r.action.Err)
	}
	return nil
}
