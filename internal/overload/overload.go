// Package overload is what remains of the daemon's learned cost model: an
// empty type kept so the frozen bench/ module, which still builds one and
// assigns it to ChatLSPipeline.Costs and EvalOptions.Costs, compiles.
//
// Nothing reads it. The only budget a request has is its context deadline,
// which resilience.Execute and the evaluation's ctx.Err() checks enforce;
// admission is the server's fixed Workers+QueueDepth bound.
package overload

// CostModel carries no state and is read by nothing.
type CostModel struct{}

// NewCostModel returns an empty CostModel; alpha is ignored.
func NewCostModel(alpha float64) *CostModel { return &CostModel{} }
