package workload

// DigestJobs exposes the generation digest to the external tests.
var DigestJobs = digestJobs
