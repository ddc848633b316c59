module govdns/bench

go 1.22

require govdns v0.0.0

replace govdns => ../
