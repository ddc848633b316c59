// Command app is reachcheck's fixture binary: what it calls is reached.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	t := lib.NewTable[string, int]()
	fmt.Println(lib.Used(), t.Get("x"), lib.Run(lib.Impl{}))
}
