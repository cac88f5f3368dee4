package bandwidth_test

import (
	"fmt"

	"quest/internal/bandwidth"
)

// ExampleBytesPerSec formats rates across the paper's eight orders of
// magnitude.
func ExampleBytesPerSec() {
	fmt.Println(bandwidth.BytesPerSec(100e12)) // the Figure 2 wall
	fmt.Println(bandwidth.BytesPerSec(3.4e6))  // a QuEST+cache stream
	// Output:
	// 100 TB/s
	// 3.4 MB/s
}
