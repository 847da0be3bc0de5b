"""EVL mini-language: the AST (`ast`), the parser (`parser`) and the
interpreter, which only the oracle runs (`interp`)."""
