// Package waiver is the fixture for analysis.Run's escape hatch: every
// call to flagged is a finding of the test's analyzer.
package waiver

func flagged() {}

func f() {
	flagged() //nephele:calls-ok silences its own line
	//nephele:calls-ok silences the next line
	flagged()
	flagged()
	//nephele:calls-ok silences nothing
	_ = 0
	// A mention of //nephele:calls-ok in prose is no waiver.
	flagged()
}
