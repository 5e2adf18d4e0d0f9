package core

// The map-based reference model, for the external core_test oracle
// tests.
var (
	ReferenceEvaluate    = referenceEvaluate
	ReferenceTTM         = referenceTTM
	ReferenceCASWithStep = referenceCASWithStep
)

// Chips returns the compiled final-chip count.
func (e *Evaluator) Chips() float64 { return e.chips }
