package gnn

// EmbedGlobalBatch is EmbedGlobal over each graph in turn. It is kept for the
// benchmark module (bench/), which times it against two EmbedGlobal calls;
// nothing in the serving path batches.
func (m *Model) EmbedGlobalBatch(gs []*Graph) [][]float64 {
	if len(gs) == 0 {
		return nil
	}
	out := make([][]float64, len(gs))
	for i, g := range gs {
		out[i] = m.EmbedGlobal(g)
	}
	return out
}
