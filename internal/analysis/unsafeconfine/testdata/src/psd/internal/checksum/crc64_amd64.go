// crc64_amd64.go is the audited assembly seam: body-less declarations are
// allowed here by name.
package checksum

func foldCLMUL(state uint64, fold *[4]uint64, p []byte) (r0, r1 uint64)
