(* Shared helpers for the test executables (every module in test/ that is
   not itself a test main is linked into all of them). *)

(* Run [f] in a unique scratch directory and remove it afterwards, pass or
   fail — suites that write store files must not leave litter behind or
   collide when run concurrently. *)
let with_temp_dir ?(prefix = "spm_test_") f =
  let dir = Filename.temp_dir prefix "" in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () ->
      f dir)

let temp_file_in dir name = Filename.concat dir name

(* Poll [ready] every 10 ms until it holds or [seconds] pass; [true] if it
   held. A test runs a blocking call on a thread and polls for its end this
   way, so a call that never returns fails the test instead of hanging it. *)
let within ~seconds ready =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    ready ()
    || Unix.gettimeofday () < deadline
       && begin
            Thread.delay 0.01;
            poll ()
          end
  in
  poll ()
