package flow

// Exports for the external test package: the contract corpus
// (corpus_test.go) reads the package's shared kit, its memoized
// registry results and characterization, and the binary entry encoders
// whose bytes the artifact store persists.
var (
	SharedKit       = kit
	RegistryResults = registryResults
	RegistryModels  = registryModels
	CircuitModel    = circuitModel
	CodecNetlist    = codecNetlist
	CodecNLDM       = codecNLDM
	PlacementCodec  = placementCodec
)
