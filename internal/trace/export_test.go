package trace

// Exported for the external tests in ahead_test.go, which import
// internal/workload and so cannot live in this package.
const AheadBatch = aheadBatch

var RandomRecords = randomRecords
