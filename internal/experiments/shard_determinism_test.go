package experiments

import (
	"testing"
	"time"
)

// TestShardQuerySimulatedTimeIsScheduleIndependent pins the exchange's
// ordered page loading: simulated disk time prices each read by the read
// before it on the same disk (sequential transfer or a new positioning), so
// it is reproducible only if every disk sees an exchange's reads in task
// order. Both shard-sweep queries must therefore report the same simulated
// time on repeated runs and at workers=1/2/4. The shard sweep runs with ESM
// layout off — adjacency matters there — which is what the parallel sweep's
// determinism check (ESM layout on, every read a positioning) cannot see.
func TestShardQuerySimulatedTimeIsScheduleIndependent(t *testing.T) {
	itemsPerPage, ownersPerPage, err := shardRecordDensities()
	if err != nil {
		t.Fatal(err)
	}
	items := 6000 / (4 * itemsPerPage) * (4 * itemsPerPage)
	owners := 3000 / (4 * ownersPerPage) * (4 * ownersPerPage)
	const runs = 2
	for _, b := range shardBenches {
		for _, n := range []int{1, 2} {
			var base ShardQueryEntry
			for _, workers := range []int{1, 2, 4} {
				for run := 0; run < runs; run++ {
					e, err := measureShardQueryWorkers(b.name, n, workers, items, owners, time.Microsecond, b.plan)
					if err != nil {
						t.Fatalf("%s shards=%d workers=%d: %v", b.name, n, workers, err)
					}
					if workers == 1 && run == 0 {
						base = e
						continue
					}
					if e.Rows != base.Rows || e.Reads != base.Reads || e.SimulatedMs != base.SimulatedMs {
						t.Errorf("%s shards=%d workers=%d run %d: rows=%d reads=%d simulated %.3fms; workers=1 gave rows=%d reads=%d %.3fms",
							b.name, n, workers, run, e.Rows, e.Reads, e.SimulatedMs, base.Rows, base.Reads, base.SimulatedMs)
					}
				}
			}
		}
	}
}
