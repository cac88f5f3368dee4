package word

// Arch names the file of the pair the build kept.
const Arch = "amd64"
