type pid = int

type 'msg ep = {
  me : pid;
  n : int;
  send : pid -> 'msg -> unit;
  broadcast : ?include_self:bool -> 'msg -> unit;
  sends : unit -> int;
}

type 'msg handlers = {
  on_start : 'msg ep -> unit;
  on_receive : 'msg ep -> src:pid -> 'msg -> unit;
}
