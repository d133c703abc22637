package lump

// PlanDest exposes a plan's per-entry coarse destinations to the external
// tests in plan_oracle_test.go.
func PlanDest(pl *Plan) []int32 { return pl.dest }
