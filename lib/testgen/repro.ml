module Json = Json
