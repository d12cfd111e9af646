package cluster

// Spread balances instance counts: each child goes to the host currently
// running the fewest domains (counting children already assigned in this
// call), ties broken by lowest cluster index. It is deterministic: the same
// counts yield the same assignment, so routed figures replay bit-identically.
type Spread struct{}

// Name implements core.Placement.
func (Spread) Name() string { return "spread" }

// Place implements core.Placement.
func (Spread) Place(n int, domains []int) []int {
	load := append([]int(nil), domains...)
	out := make([]int, 0, n)
	for len(out) < n {
		best := 0
		for i := 1; i < len(load); i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best]++
		out = append(out, best)
	}
	return out
}
