//go:build race

package plan

// raceBuild reports a build with the race detector, whose instrumentation
// changes what escapes to the heap: byte bounds hold only without it.
const raceBuild = true
