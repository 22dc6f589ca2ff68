// Package justfix exercises the allow-justification rule: a bare
// //lucheck:allow still suppresses its target, but is itself an
// unsuppressable finding and fails the audit. It is compiled by the
// lucheck tests under a virtual import path (scoped as a contract
// package) and must never build as part of the real module.
package justfix

// S carries a task list.
type S struct{ Tasks []int }

// Collect's nondet-source violation is suppressed by a BARE allow: the
// nondet-source finding must vanish, the allow-justification finding
// must appear at the directive line.
func Collect(m map[int]int, s *S) {
	//lucheck:allow nondet-source
	for id := range m {
		s.Tasks = append(s.Tasks, id)
	}
}

// orphan is a directive naming no rule at all.
//
//lucheck:allow
func orphan() {}

// Justified shows the compliant form: no finding anywhere.
func Justified(m map[int]int, s *S) {
	//lucheck:allow nondet-source — fixture: order is rewritten by the caller before use
	for id := range m {
		s.Tasks = append(s.Tasks, id)
	}
}
