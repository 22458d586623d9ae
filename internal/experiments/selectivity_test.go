package experiments

import (
	"testing"
)

func TestSelectivity(t *testing.T) {
	ranks := []string{"0", "2", "20"}
	r := ran(t, "popularity")(Selectivity(smallEnv(t), []int{0, 2, 20}))
	wantRows(t, r, 3)
	// The headline target gains substantially (selectivity's gate row);
	// DataNet never leaves a worse balance than the baseline anywhere on
	// the sweep, and sizes decrease down the popularity tail.
	holdGates(t, "selectivity", r)
	for i, rank := range ranks {
		if i > 0 && val(t, r, rank+"/target_bytes") > val(t, r, ranks[i-1]+"/target_bytes") {
			t.Errorf("rank %s larger than rank %s", rank, ranks[i-1])
		}
		if dn, base := val(t, r, rank+"/datanet_max_avg"), val(t, r, rank+"/baseline_max_avg"); dn > base*1.1 {
			t.Errorf("rank %s: datanet %.2f worse than baseline %.2f", rank, dn, base)
		}
		if share := val(t, r, rank+"/share_of_raw"); share < 0 || share > 1 {
			t.Errorf("rank %s: share %g", rank, share)
		}
	}
}

func TestWebLog(t *testing.T) {
	p := WebLogParams{Nodes: 8, Racks: 2, Blocks: 32, BlockBytes: 64 << 10, Alpha: 0.3, Seed: 13}
	holdGates(t, "weblog", ran(t, "WorldCup")(WebLog(p)))
}

func TestBlockSizeSweep(t *testing.T) {
	r := ran(t, "block size")(BlockSize([]int64{32 << 10, 128 << 10}, smallMovie()))
	wantRows(t, r, 2)
	fine, coarse := "32 KiB", "128 KiB"
	if val(t, r, fine+"/blocks") <= val(t, r, coarse+"/blocks") {
		t.Errorf("finer blocks should mean more of them: %g vs %g", val(t, r, fine+"/blocks"), val(t, r, coarse+"/blocks"))
	}
	if val(t, r, fine+"/max_block_share") >= val(t, r, coarse+"/max_block_share") {
		t.Errorf("finer blocks should hold smaller shares: %.3f vs %.3f",
			val(t, r, fine+"/max_block_share"), val(t, r, coarse+"/max_block_share"))
	}
	for _, size := range []string{fine, coarse} {
		if dn, base := val(t, r, size+"/datanet_max_avg"), val(t, r, size+"/baseline_max_avg"); dn > base*1.1 {
			t.Errorf("block %s: datanet %.2f worse than baseline %.2f", size, dn, base)
		}
	}
}

func TestReplicationSweep(t *testing.T) {
	r := ran(t, "replication")(Replication([]int{1, 3}, smallMovie()))
	wantRows(t, r, 2)
	// More replicas should not hurt balance: replication's gate row.
	holdGates(t, "replication", r)
	for _, rf := range []string{"1", "3"} {
		if local := val(t, r, rf+"/datanet_local"); local < 0 || local > 1 {
			t.Errorf("r=%s: local fraction %g", rf, local)
		}
	}
}
