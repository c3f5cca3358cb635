// Package hygiene seeds directive-hygiene fixtures for the dedicated unit
// test (TestSuppressionHygiene): want comments cannot share a line with
// //caer:allow — the trailing text would parse as the allow's reason — so
// the three allow cases are counted there and this package stays out of the
// golden walk. Findings about a directive in a function's doc comment sit
// on the function's name, which is where their want comments are.
package hygiene

// mightFail returns an error the caller below discards.
func mightFail() error { return nil }

// reasonless suppresses the discard below but gives no reason: the
// suppression itself becomes a finding.
func reasonless() {
	//caer:allow lockdiscipline
	mightFail()
}

// stale carries an allow that matches nothing: reported only under
// ReportUnusedSuppressions, and only when the named analyzer ran.
func stale() int {
	//caer:allow hotpath long-gone diagnostic copy
	return 1
}

// misnamed waives an analyzer the suite does not have (a typo here; an
// analyzer since deleted reads the same): it waives nothing, so it is
// always a finding, whatever subset ran.
func misnamed() int {
	//caer:allow shmacess typo
	return 1
}

// tick is a hot root, and a needed one: nothing else reaches it.
//
//caer:hot
func tick() {
	setup()
	helper()
	unexplained()
}

// setup is a barrier the walk from tick meets, with its reason: clean.
//
//caer:cold one-time lazy setup behind a started flag
func setup() {}

// helper is hot because tick calls it; its own root directive adds nothing.
//
//caer:hot
func helper() {} // want suppression "redundant //caer:hot: hygiene.helper is already reachable"

// unexplained is a barrier without a reason: unreviewable, always a finding.
//
//caer:cold
func unexplained() {} // want suppression "//caer:cold needs a reason"

// retired was a barrier once; no hot function calls it any more.
//
//caer:cold the migration path it guarded is gone
func retired() {} // want suppression "unreached //caer:cold: no hot path calls hygiene.retired"

// misspelt meant to be a root; an unknown word would silently mark nothing.
//
//caer:hto
func misspelt() {} // want suppression "unknown directive //caer:hto"

// The blank line below detaches the directive from detached's doc comment,
// so it marks nothing (trailing text after a bare word is ignored, which is
// what lets the want comment share its line).

//caer:hot // want suppression "not in the doc comment of a function"

func detached() {}

var (
	_ = reasonless
	_ = stale
	_ = misnamed
	_ = tick
	_ = retired
	_ = misspelt
	_ = detached
)
