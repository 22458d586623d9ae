package chaos

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"datanet/internal/partition"
	"datanet/internal/straggle"
)

// oracleBundle is the configuration the digests below were recorded
// under: the oracle detector (the master reacts at the crash instant),
// one mitigation for the whole corpus, and the partitioner and reducer
// count rotating with the seed — so every arm the harness knows runs on
// every seed.
func oracleBundle(seed uint64, mitigate straggle.Mode) drawn {
	b := drawn{reducers: 1 + int(seed>>3%13)}
	b.Mitigate = straggle.Config{Mode: mitigate}.WithDefaults()
	b.Partition = []partition.Mode{partition.ModeHash, partition.ModeSkew, partition.ModeRange}[seed%3]
	return b
}

// oracleDigest hashes the full Result (or the error text) of every arm
// over `plans` generated fault plans: any change to an oracle-mode
// schedule, counter or failure moves it.
func oracleDigest(t *testing.T, mitigate straggle.Mode, plans int) string {
	t.Helper()
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	r := newRNG(99) // the stream whose 86th plan is the double-commit seed below
	for i := 0; i < plans; i++ {
		seed := r.next()
		plan := GenPlan(seed, h.horizon, h.p)
		b := oracleBundle(seed, mitigate)
		for _, a := range arms(b) {
			res, err := h.runArm(a, plan, b, nil)
			if err != nil {
				fmt.Fprintf(sum, "%d %s error %v\n", seed, a.name, err)
				continue
			}
			fmt.Fprintf(sum, "%d %s %+v\n", seed, a.name, *res)
		}
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// The oracle differential: the engine's one failure path serves the
// oracle as the zero-latency case of the detector's physics → respond
// split, so oracle-mode results are pinned here for all three mitigation
// modes. The off and speculative digests were recorded at the commit
// before the crash-path collapse and have not moved since; the coded one
// was re-recorded once, with the double-queue fix (see CHANGES.md, PR 18).
func TestOracleDifferential(t *testing.T) {
	want := map[string]string{
		"":            "79041a41fff5cc967af077ef667be64599264f83bc94b04bc1fc429625c94d77",
		"speculative": "04f51ceaea9f126208d1c672760f51de89b27a46aeeaae53626e0209141ba003",
		"coded":       "5a1075fba582ffbce83678bb5d9b45d6a438fd4816f13e2f10803051d04337e0",
	}
	for mode, digest := range want {
		mode, digest := mode, digest
		t.Run("mitigate="+mode, func(t *testing.T) {
			t.Parallel()
			if mode == "" { // the subtest's recorded name
				mode = straggle.ModeOff.String()
			}
			if got := oracleDigest(t, straggle.Mode(mode), 400); got != digest {
				t.Errorf("oracle digest (mitigate %q) = %s, want %s", mode, got, digest)
			}
		})
	}
}

// Regression (coded double commit): under the oracle this seed's plan
// crashes a node whose committed unit is un-committed, which used to queue
// parity unit 26 twice — both copies ran and both committed, so the group
// counted one unit as two of its k.
func TestCodedUnitCommitsOnce(t *testing.T) {
	const seed = 8147491702576048091
	h, err := NewHarness(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	plan := GenPlan(seed, h.horizon, h.p)
	b := oracleBundle(seed, straggle.ModeCoded)
	for _, s := range arms(b) {
		res, err := h.runArm(s, plan, b, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if dup := duplicateLiveBlocks(res); len(dup) > 0 {
			t.Errorf("%s: blocks with more than one live stat: %v", s.name, dup)
		}
		// Neither the oracle nor coded execution launches duplicates, so a
		// duplicate kill here means a unit was dispatched twice and only the
		// completion dedupe saved the commit.
		if res.DuplicateKills != 0 {
			t.Errorf("%s: %d duplicate kills: a unit ran twice", s.name, res.DuplicateKills)
		}
	}
}
