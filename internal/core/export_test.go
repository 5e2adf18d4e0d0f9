package core

// The map-based reference model, for the external core_test oracle
// tests.
var (
	ReferenceEvaluate    = referenceEvaluate
	ReferenceTTM         = referenceTTM
	ReferenceCASWithStep = referenceCASWithStep
)
