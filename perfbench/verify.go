package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/workload"
)

// defaultSeed is the seed whose round digests are pinned.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// pinnedDigests maps scale, then workload, to the SHA-256 digest of one
// round's simulated counters at defaultSeed.
func pinnedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// roundDigest hashes every simulated counter of every op, one sorted
// "op<TAB>key=value" line each. Host timings are not part of it.
func roundDigest(ops []opRecord) string {
	var lines []string
	for _, op := range ops {
		for k, v := range op.counts {
			lines = append(lines, fmt.Sprintf("%s\t%s=%d", op.id, k, v))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diffCounts describes the first difference between two ops' counters,
// or returns "" when they are identical.
func diffCounts(want, got opRecord) string {
	if got.err != nil {
		return got.err.Error()
	}
	keys := make([]string, 0, len(want.counts)+len(got.counts))
	for k := range want.counts {
		keys = append(keys, k)
	}
	for k := range got.counts {
		if _, ok := want.counts[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want.counts[k]
		g, gok := got.counts[k]
		if w != g || wok != gok {
			return fmt.Sprintf("%s: %s = %d, want %d", got.id, k, g, w)
		}
	}
	return ""
}

// verdict is the outcome of every correctness check on a run.
type verdict struct {
	digest string
	// bad marks ops whose reference-round counters are wrong; every
	// round replays the same op, so such an op fails in every round.
	bad    map[string]string
	failed int // measured ops that errored, broke a check, or are bad
	lines  []string
}

// check runs the correctness checks against the first measured round:
//   - at defaultSeed, the round digest equals the pinned one;
//   - the first op of every prefix, re-run on a freshly booted machine
//     (no checkpoint, no store), matches the forked run;
//   - for an observed workload, the same ops run unobserved match;
//   - every op of every round ran without error and repeats the first
//     round's counters exactly.
func check(w *benchWorkload, scale string, seed int64, u *workload.Universe,
	images []*checkpoint.Image, rounds []roundResult, rec *recorder) (*verdict, error) {
	ref := rounds[0]
	v := &verdict{digest: roundDigest(ref.ops), bad: map[string]string{}}
	mark := func(id, why string) {
		if _, dup := v.bad[id]; !dup {
			v.bad[id] = why
		}
	}

	pins, err := pinnedDigests()
	if err != nil {
		return nil, err
	}
	switch want, ok := pins[scale][w.name]; {
	case seed != defaultSeed || !ok:
		v.lines = append(v.lines, fmt.Sprintf("digest %s (none pinned for seed %d)", v.digest, seed))
	case want == v.digest:
		v.lines = append(v.lines, fmt.Sprintf("digest %s matches the pinned digest", v.digest))
	default:
		v.lines = append(v.lines, fmt.Sprintf("digest %s MISMATCH, pinned %s", v.digest, want))
		for _, op := range ref.ops {
			mark(op.id, "pinned digest mismatch")
		}
	}

	// Re-run the first op of each prefix's first group on a fresh boot.
	done := map[int]bool{}
	n := 0 // reference-round index of the group's first op
	for _, g := range w.groups {
		first := n
		n += len(g.ops)
		if done[g.prefix] {
			continue
		}
		done[g.prefix] = true
		p := w.prefixes[g.prefix]
		var sys *android.System
		if err := rec.do("boot", func() (err error) {
			sys, err = android.BootOpts(p.cfg, p.layout, u, p.opts())
			return err
		}); err != nil {
			mark(ref.ops[first].id, "fresh boot: "+err.Error())
			continue
		}
		if d := diffCounts(ref.ops[first], runOps(sys, g, 1, rec)[0]); d != "" {
			mark(ref.ops[first].id, "fresh boot: "+d)
		}
	}
	v.lines = append(v.lines, fmt.Sprintf("fresh-boot re-run of the first op of %d prefixes checked", len(done)))

	if w.traced {
		plain := runRound(w, images, false, rec)
		for i, op := range plain.ops {
			if d := diffCounts(ref.ops[i], op); d != "" {
				mark(op.id, "unobserved run: "+d)
			}
		}
		v.lines = append(v.lines, fmt.Sprintf("unobserved re-run digest %s", roundDigest(plain.ops)))
	}

	first := ""
	for ri, r := range rounds {
		for i, op := range r.ops {
			why, bad := v.bad[op.id]
			switch {
			case op.err != nil:
				why = op.err.Error()
			case !bad && ri > 0:
				why = diffCounts(ref.ops[i], op)
			}
			if why != "" {
				v.failed++
				if first == "" {
					first = why
				}
			}
		}
	}
	v.lines = append(v.lines, fmt.Sprintf("%d rounds x %d ops, %d failed %s", len(rounds), len(ref.ops), v.failed, first))
	return v, nil
}
