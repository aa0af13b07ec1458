module bitcoinng/benchmark

go 1.24

require bitcoinng v0.0.0

replace bitcoinng => ../
