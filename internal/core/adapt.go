package core

import "repro/internal/zcodec"

// compressionWins is the Auto-policy decision function: given the
// connection's measured wire bandwidth (bytes/sec, 0 when unmeasured),
// report whether compressing the next transfer leg is expected to net
// out faster than sending raw. It is a package variable so the
// deterministic flip test can substitute a pure threshold function;
// production always uses zcodec.CompressionWins, which combines the
// process-wide encode-throughput/ratio ledger with the per-connection
// EWMA.
var compressionWins = zcodec.CompressionWins

// legMask is the compression mask the sender of a framed centralized leg puts
// on it: its own, unless the Auto policy's estimator, given the bandwidth of
// the leg's connection, says raw is faster. Thread 0 of the sending side
// decides alone; its threads learn the mask from a broadcast the call already
// runs (the client's token, the server's directive), and the receiver decodes
// whatever arrives.
func legMask(mask uint8, policy zcodec.Policy, bandwidth func() float64) uint8 {
	if mask == 0 || policy != zcodec.PolicyAuto || compressionWins(bandwidth()) {
		return mask
	}
	return 0
}
