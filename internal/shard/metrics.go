// Metrics merge: each shard core owns its own obs.Registry (the
// factory supplies it), and the router exposes one scrape surface that
// relabels every per-core series with a "shard" label plus a summed
// shard="all" rollup per family. Series of one family stay adjacent in
// the output — the Prometheus encoder emits one # TYPE line per
// contiguous family run, so interleaving families would produce a
// malformed exposition.
package shard

import (
	"repro/internal/obs"
)

// MergedMetrics returns the router-level instruments followed by every
// core family: for each family, first the shard="all" aggregate
// (counters and histogram buckets summed across shards), then the
// individual per-shard series.
func (r *Router) MergedMetrics() []obs.Metric {
	out := r.cfg.Metrics.Snapshot()
	type series struct {
		shard int
		m     obs.Metric
	}
	var famOrder []string
	fams := map[string][]series{}
	for i, c := range r.cores {
		c.PlanAge() // refresh the plan-age gauge so scrapes read a live age
		for _, m := range c.Metrics().Snapshot() {
			if _, ok := fams[m.Name]; !ok {
				famOrder = append(famOrder, m.Name)
			}
			fams[m.Name] = append(fams[m.Name], series{i, m})
		}
	}
	for _, name := range famOrder {
		ss := fams[name]
		// Aggregate across shards per label tuple (the vast majority of
		// families are unlabeled: one tuple).
		var aggOrder []string
		aggs := map[string]*obs.Metric{}
		for _, s := range ss {
			k := labelKey(s.m.Labels)
			a, ok := aggs[k]
			if !ok {
				cp := s.m
				cp.Labels = withShardLabel(s.m.Labels, "all")
				cp.Buckets = append([]obs.Bucket(nil), s.m.Buckets...)
				aggs[k] = &cp
				aggOrder = append(aggOrder, k)
				continue
			}
			if a.Kind == "gauge" {
				// Gauges roll up as the worst reading, not a sum: a
				// shard="all" plan age is the staleness of the *stalest*
				// shard's plan.
				if s.m.Sum > a.Sum {
					a.Sum, a.Value = s.m.Sum, s.m.Value
				}
				continue
			}
			a.Value += s.m.Value
			a.Sum += s.m.Sum
			if len(a.Buckets) == len(s.m.Buckets) {
				for bi := range a.Buckets {
					a.Buckets[bi].Count += s.m.Buckets[bi].Count
				}
			}
		}
		for _, k := range aggOrder {
			a := aggs[k]
			if a.Kind == "histogram" && a.Value > 0 {
				a.Mean = a.Sum / float64(a.Value)
			}
			out = append(out, *a)
		}
		for _, s := range ss {
			m := s.m
			m.Labels = withShardLabel(s.m.Labels, shardLabel(s.shard))
			out = append(out, m)
		}
	}
	return out
}

// labelKey identifies a label tuple within one family.
func labelKey(ls []obs.Label) string {
	k := ""
	for _, l := range ls {
		k += l.Key + "\xff" + l.Value + "\xff"
	}
	return k
}

// withShardLabel copies a label set with shard=<v> appended.
func withShardLabel(ls []obs.Label, v string) []obs.Label {
	out := make([]obs.Label, 0, len(ls)+1)
	out = append(out, ls...)
	return append(out, obs.Label{Key: "shard", Value: v})
}
