module caer/benchmark

go 1.22

require caer v0.0.0

replace caer => ../
