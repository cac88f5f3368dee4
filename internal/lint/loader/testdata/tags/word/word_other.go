//go:build !amd64

package word

// Arch names the file of the pair the build kept.
const Arch = "other"
