package lint

import (
	"go/ast"
	"strings"
)

// Noclock bans direct clock access from the packages that injected
// their clocks on purpose:
//
//   - internal/plan never calls time.Now. Per-operator timing goes
//     through eval.Context.Clock and Time, which read the clock only
//     under EXPLAIN ANALYZE and are called once per phase (a block, a
//     scan call, a hash build, a sort) — a clock read inside a row loop
//     would put a vDSO call (and on some platforms a real syscall) on
//     the per-row path. Deadlines come in through the context and the
//     governor's wall-time budget, so plan code has no legitimate need
//     for the clock.
//
//   - internal/shard never calls time.Now, time.Sleep, time.Since, or
//     time.Until. The fault-tolerance layer grew the Policy.WithClock
//     seam exactly so the chaos battery can drive breaker cooldowns and
//     retry backoffs deterministically; a direct clock read bypasses
//     the injected clock and makes a chaos schedule unreproducible. The
//     one sanctioned wiring point — Policy.filled defaulting the
//     injected funcs to the real clock — carries a `// noclock:` marker
//     naming itself as the allowlisted injection site.
var Noclock = &Analyzer{
	Name: "noclock",
	Doc:  "internal/plan never reads the clock; internal/shard goes through the Policy.WithClock injection seam",
	Run:  perFile(noclock),
}

// noclockShardBans are the time package functions that read or spend
// real time; timer construction (time.NewTimer) is legal because the
// hedging timer is cancelled through the context machinery the chaos
// tests already control.
var noclockShardBans = []string{"Now", "Sleep", "Since", "Until"}

func noclock(r *Repo, f *File) []Finding {
	inPlan := strings.HasPrefix(f.Path, "internal/plan/")
	inShard := strings.HasPrefix(f.Path, "internal/shard/")
	if !inPlan && !inShard {
		return nil
	}
	banned := noclockShardBans
	if inPlan {
		banned = []string{"Now"}
	}
	var out []Finding
	ast.Inspect(f.Ast, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		name := ""
		for _, b := range banned {
			if isPkgSel(e, "time", b) {
				name = b
				break
			}
		}
		if name == "" {
			return true
		}
		if inShard && r.markerNear(f, e.Pos(), "noclock:") {
			// The allowlisted injection point: Policy.filled wiring the
			// default clock into the WithClock seam.
			return true
		}
		msg := "time.Now in internal/plan; operator timing goes through eval.Context.Clock/Time, once per phase"
		if inShard {
			msg = "time." + name + " in internal/shard bypasses the Policy.WithClock injection seam; " +
				"use the policy's now()/sleep() (or mark the injection point itself with `// noclock:`)"
		}
		out = append(out, Finding{Pos: r.pos(e), Check: "noclock", Msg: msg})
		return true
	})
	return out
}
