module valentine/bench

go 1.24

require valentine v0.0.0

replace valentine => ../
