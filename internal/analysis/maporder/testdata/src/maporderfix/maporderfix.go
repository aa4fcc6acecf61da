// Package maporderfix exercises the maporder analyzer: map ranges that
// feed ordered output, and the order-insensitive idioms it must accept.
package maporderfix

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

func prints(m map[string]int) {
	for k, v := range m { // want `map iteration order is randomized but the loop body prints with fmt\.Println`
		fmt.Println(k, v)
	}
}

func appendsUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to a slice declared outside the loop`
		out = append(out, k)
	}
	return out
}

func concatenates(m map[string]int) string {
	s := ""
	for k := range m { // want `concatenates onto a string declared outside the loop`
		s += k
	}
	return s
}

func writes(m map[string]int, sb *strings.Builder) {
	for k := range m { // want `calls WriteString on a value from outside the loop`
		sb.WriteString(k)
	}
}

func buildsEvents(m map[int]uint64, emit func(obs.Event)) {
	for pid := range m { // want `constructs an obs\.Event \(events form an ordered stream\)`
		emit(obs.Event{Kind: obs.EvPageFault, PID: pid})
	}
}

// collectThenSort is the canonical deterministic idiom: append inside the
// range, sort the same slice after the loop. Not a finding.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectThenSortSlice accepts the sort.Slice spelling too.
func collectThenSortSlice(m map[int]uint64) []int {
	pids := make([]int, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

// nestedCollectThenSort collects inside an outer loop and sorts once
// after that loop, in the block that declares the slice. Not a finding.
func nestedCollectThenSort(ms []map[string]int) []string {
	var lines []string
	for _, m := range ms {
		for k := range m {
			lines = append(lines, k)
		}
	}
	sort.Strings(lines)
	return lines
}

// nestedUnsorted collects inside an outer loop and never sorts.
func nestedUnsorted(ms []map[string]int) []string {
	var lines []string
	for _, m := range ms {
		for k := range m { // want `appends to a slice declared outside the loop`
			lines = append(lines, k)
		}
	}
	return lines
}

// nestedSortFirst sorts before the outer loop, so the appends that
// follow stay in map order.
func nestedSortFirst(ms []map[string]int, lines []string) []string {
	sort.Strings(lines)
	for _, m := range ms {
		for k := range m { // want `appends to a slice declared outside the loop`
			lines = append(lines, k)
		}
	}
	return lines
}

// shadowedSort sorts an outer slice after the outer loop, but the loop
// appends to an inner slice of the same name that the sort never sees.
func shadowedSort(ms []map[string]int) (lines []string) {
	for _, m := range ms {
		var lines []string
		for k := range m { // want `appends to a slice declared outside the loop`
			lines = append(lines, k)
		}
		fmt.Println(len(lines))
	}
	sort.Strings(lines)
	return lines
}

// conditionalSort sorts only when tidy is set, so the slice it returns
// otherwise stays in map order.
func conditionalSort(m map[string]int, tidy bool) []string {
	var out []string
	for k := range m { // want `appends to a slice declared outside the loop`
		out = append(out, k)
	}
	if tidy {
		sort.Strings(out)
	}
	return out
}

// commutativeFold accumulates with +=, which is order-insensitive.
func commutativeFold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// mapToMap fills another map, which has no observable order.
func mapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sortedKeysRange prints over a sorted key slice: the fix the analyzer
// recommends, trivially accepted (the range is over a slice).
func sortedKeysRange(m map[string]int) {
	for _, k := range collectThenSort(m) {
		fmt.Println(k, m[k])
	}
}
