module videorec/bench

go 1.24

require videorec v0.0.0

replace videorec => ../
